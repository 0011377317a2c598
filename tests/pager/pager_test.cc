/**
 * @file
 * Unit tests for the pager: superblock round trip, format layout,
 * bitmap allocation, and reopening.
 */

#include <gtest/gtest.h>

#include <vector>

#include "page/page_io.h"
#include "page/slotted_page.h"
#include "pager/pager.h"
#include "pm/device.h"
#include "support/checker_guard.h"

namespace fasp::pager {
namespace {

using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;

PmDevice
makeDevice(std::size_t size = 16u << 20,
           PmMode mode = PmMode::Direct)
{
    PmConfig cfg;
    cfg.size = size;
    cfg.mode = mode;
    return PmDevice(cfg);
}

TEST(SuperblockTest, RoundTrip)
{
    auto dev = makeDevice();
    testsupport::PmCheckerGuard guard(dev);
    Superblock sb;
    sb.pageSize = 4096;
    sb.pageCount = 1024;
    sb.bitmapPages = 1;
    sb.directoryPid = 2;
    sb.logOff = 1024ull * 4096;
    sb.logLen = 1u << 20;
    sb.writeTo(dev);

    auto loaded = Superblock::readFrom(dev);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    EXPECT_EQ(loaded->pageSize, 4096u);
    EXPECT_EQ(loaded->pageCount, 1024u);
    EXPECT_EQ(loaded->bitmapPages, 1u);
    EXPECT_EQ(loaded->directoryPid, 2u);
    EXPECT_EQ(loaded->logOff, 1024ull * 4096);
    EXPECT_EQ(loaded->logLen, 1u << 20);
    // Data pages start right after the directory.
    EXPECT_EQ(loaded->firstDataPid(), 3u);
}

TEST(SuperblockTest, DetectsCorruption)
{
    auto dev = makeDevice();
    testsupport::PmCheckerGuard guard(dev);
    Superblock sb;
    sb.pageSize = 4096;
    sb.pageCount = 1024;
    sb.logOff = 1024ull * 4096;
    sb.logLen = 0;
    sb.writeTo(dev);

    dev.writeU16(12, 0xdead); // flip bytes inside the CRC-covered area
    dev.clflush(0);           // make the corruption durable
    dev.sfence();
    auto loaded = Superblock::readFrom(dev);
    EXPECT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.status().code(), StatusCode::Corruption);
}

TEST(SuperblockTest, DetectsUnformattedDevice)
{
    auto dev = makeDevice();
    testsupport::PmCheckerGuard guard(dev);
    auto loaded = Superblock::readFrom(dev);
    EXPECT_FALSE(loaded.isOk());
}

TEST(PagerFormatTest, LayoutIsSane)
{
    auto dev = makeDevice();
    testsupport::PmCheckerGuard guard(dev);
    Pager::FormatParams params;
    params.logLen = 2u << 20;
    auto sb = Pager::format(dev, params);
    ASSERT_TRUE(sb.isOk()) << sb.status().toString();

    EXPECT_EQ(sb->pageSize, kDefaultPageSize);
    EXPECT_GT(sb->pageCount, 1000u);
    EXPECT_GE(sb->bitmapPages, 1u);
    EXPECT_EQ(sb->directoryPid, 1 + sb->bitmapPages);
    EXPECT_EQ(sb->logOff,
              static_cast<std::uint64_t>(sb->pageCount) * sb->pageSize);
    EXPECT_LE(sb->logOff + sb->logLen, dev.size());

    // Reopen reads the same superblock.
    auto reopened = Pager::open(dev);
    ASSERT_TRUE(reopened.isOk());
    EXPECT_EQ(reopened->pageCount, sb->pageCount);
}

TEST(PagerFormatTest, DirectoryPageIsEmptySlottedLeaf)
{
    auto dev = makeDevice();
    testsupport::PmCheckerGuard guard(dev);
    auto sb = Pager::format(dev, {});
    ASSERT_TRUE(sb.isOk());

    std::vector<std::uint8_t> buf(sb->pageSize);
    dev.read(sb->pageOffset(sb->directoryPid), buf.data(), buf.size());
    page::BufferPageIO io(buf.data(), buf.size());
    EXPECT_EQ(page::pageType(io), page::PageType::Leaf);
    EXPECT_EQ(page::numRecords(io), 0);
    EXPECT_TRUE(page::checkIntegrity(io).isOk());
}

TEST(PagerFormatTest, MetaPagesMarkedAllocated)
{
    auto dev = makeDevice();
    testsupport::PmCheckerGuard guard(dev);
    auto sb = Pager::format(dev, {});
    ASSERT_TRUE(sb.isOk());

    std::vector<std::uint8_t> bitmap;
    Pager::loadBitmap(dev, *sb, bitmap);
    VectorBitmapIO io(bitmap);
    PageAllocator alloc(io, *sb);
    for (PageId pid = 0; pid < sb->firstDataPid(); ++pid)
        EXPECT_TRUE(alloc.isAllocated(pid)) << "pid " << pid;
    EXPECT_FALSE(alloc.isAllocated(sb->firstDataPid()));
    EXPECT_EQ(alloc.allocatedCount(), sb->directoryPid + 1);
}

TEST(PagerFormatTest, RejectsBadPageSize)
{
    auto dev = makeDevice();
    testsupport::PmCheckerGuard guard(dev);
    Pager::FormatParams params;
    params.pageSize = 3000; // not a power of two
    EXPECT_FALSE(Pager::format(dev, params).isOk());
    params.pageSize = 128; // below minimum
    EXPECT_FALSE(Pager::format(dev, params).isOk());
    params.pageSize = 65536; // page offsets are 16-bit
    EXPECT_FALSE(Pager::format(dev, params).isOk());
}

TEST(PagerFormatTest, AcceptsLargestSupportedPageSize)
{
    auto dev = makeDevice(64u << 20);
    testsupport::PmCheckerGuard guard(dev);
    Pager::FormatParams params;
    params.pageSize = 32768;
    auto sb = Pager::format(dev, params);
    ASSERT_TRUE(sb.isOk()) << sb.status().toString();
    EXPECT_EQ(sb->pageSize, 32768u);
    EXPECT_TRUE(Pager::open(dev).isOk());
}

TEST(PagerFormatTest, RejectsTooSmallDevice)
{
    auto dev = makeDevice(1u << 16);
    testsupport::PmCheckerGuard guard(dev);
    Pager::FormatParams params;
    params.logLen = 1u << 20;
    EXPECT_FALSE(Pager::format(dev, params).isOk());
}

TEST(PagerFormatTest, FormatIsDurableInCacheSimMode)
{
    auto dev = makeDevice(16u << 20, PmMode::CacheSim);
    testsupport::PmCheckerGuard guard(dev);
    auto sb = Pager::format(dev, {});
    ASSERT_TRUE(sb.isOk());
    // A crash immediately after format must not lose the layout.
    dev.crash();
    dev.reviveAfterCrash();
    auto reopened = Pager::open(dev);
    ASSERT_TRUE(reopened.isOk()) << reopened.status().toString();
    EXPECT_EQ(reopened->pageCount, sb->pageCount);

    std::vector<std::uint8_t> bitmap;
    Pager::loadBitmap(dev, *reopened, bitmap);
    VectorBitmapIO io(bitmap);
    PageAllocator alloc(io, *reopened);
    EXPECT_TRUE(alloc.isAllocated(reopened->directoryPid));
}

class PageAllocatorTest : public ::testing::Test
{
  protected:
    PageAllocatorTest() : bytes_(128, 0), io_(bytes_)
    {
        sb_.pageSize = 4096;
        sb_.pageCount = 1024;
        sb_.bitmapPages = 1;
        sb_.directoryPid = 2;
    }

    std::vector<std::uint8_t> bytes_;
    VectorBitmapIO io_;
    Superblock sb_;
};

TEST_F(PageAllocatorTest, AllocatesFromFirstDataPid)
{
    PageAllocator alloc(io_, sb_);
    auto pid = alloc.allocate();
    ASSERT_TRUE(pid.isOk());
    EXPECT_EQ(*pid, sb_.firstDataPid());
    EXPECT_TRUE(alloc.isAllocated(*pid));
}

TEST_F(PageAllocatorTest, SequentialAllocationsAreDistinct)
{
    PageAllocator alloc(io_, sb_);
    auto a = alloc.allocate();
    auto b = alloc.allocate();
    auto c = alloc.allocate();
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    ASSERT_TRUE(c.isOk());
    EXPECT_NE(*a, *b);
    EXPECT_NE(*b, *c);
    EXPECT_EQ(alloc.allocatedCount(), 3u);
}

TEST_F(PageAllocatorTest, FreedPageIsReused)
{
    PageAllocator alloc(io_, sb_);
    auto a = alloc.allocate();
    auto b = alloc.allocate();
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    alloc.free(*a);
    EXPECT_FALSE(alloc.isAllocated(*a));
    auto c = alloc.allocate();
    ASSERT_TRUE(c.isOk());
    EXPECT_EQ(*c, *a) << "first-fit must reuse the freed page";
}

TEST_F(PageAllocatorTest, ExhaustionReturnsNoSpace)
{
    sb_.pageCount = 16;
    PageAllocator alloc(io_, sb_);
    for (PageId pid = sb_.firstDataPid(); pid < 16; ++pid)
        ASSERT_TRUE(alloc.allocate().isOk());
    auto overflow = alloc.allocate();
    // Pages below firstDataPid are free in this synthetic bitmap, so
    // the wrap-around pass will claim them; mark them first.
    for (PageId pid = 0; pid < sb_.firstDataPid(); ++pid)
        alloc.markAllocated(pid);
    overflow = alloc.allocate();
    EXPECT_FALSE(overflow.isOk());
    EXPECT_EQ(overflow.status().code(), StatusCode::NoSpace);
}

TEST_F(PageAllocatorTest, MarkAllocatedIsIdempotent)
{
    PageAllocator alloc(io_, sb_);
    alloc.markAllocated(100);
    alloc.markAllocated(100);
    EXPECT_TRUE(alloc.isAllocated(100));
    alloc.free(100);
    EXPECT_FALSE(alloc.isAllocated(100));
}

TEST_F(PageAllocatorTest, BitmapSlotMath)
{
    EXPECT_EQ(bitmapSlot(0).byteIndex, 0u);
    EXPECT_EQ(bitmapSlot(0).mask, 1u);
    EXPECT_EQ(bitmapSlot(7).mask, 0x80u);
    EXPECT_EQ(bitmapSlot(8).byteIndex, 1u);
    EXPECT_EQ(bitmapSlot(8).mask, 1u);
}

} // namespace
} // namespace fasp::pager
