/**
 * @file
 * Unit tests for the NVWAL substrate: the persistent heap manager and
 * the differential log (diff computation, commit, fetch, checkpoint,
 * recovery with uncommitted-frame discard).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pager/pager.h"
#include "pm/device.h"
#include "support/checker_guard.h"
#include "wal/nv_heap.h"
#include "wal/nvwal_log.h"

namespace fasp::wal {
namespace {

using pager::Pager;
using pager::Superblock;
using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;

PmConfig
cacheSimConfig()
{
    PmConfig cfg;
    cfg.size = 24u << 20;
    cfg.mode = PmMode::CacheSim;
    return cfg;
}

// --- NvHeap ------------------------------------------------------------------

class NvHeapTest : public ::testing::Test
{
  protected:
    NvHeapTest() : device_(cacheSimConfig())
    {
        region_.off = 4u << 20;
        region_.len = 2u << 20;
        heap_ = std::make_unique<NvHeap>(device_, region_);
        heap_->formatRegion();
    }

    PmDevice device_;
    // Declared after the device: destroyed first, sweeping for
    // unflushed lines while the device is still alive.
    testsupport::PmCheckerGuard guard_{device_};
    pager::Region region_;
    std::unique_ptr<NvHeap> heap_;
};

TEST_F(NvHeapTest, AllocWriteReadBack)
{
    auto off = heap_->pmalloc(100);
    ASSERT_TRUE(off.isOk());
    std::vector<std::uint8_t> data(100, 0x5c);
    device_.write(*off, data.data(), data.size());
    device_.flushRange(*off, data.size());
    device_.sfence();
    std::vector<std::uint8_t> out(100);
    device_.read(*off, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST_F(NvHeapTest, AllocationsDoNotOverlap)
{
    auto a = heap_->pmalloc(64);
    auto b = heap_->pmalloc(64);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_GE(*b, *a + 64 + NvHeap::kBlockHeaderBytes);
}

TEST_F(NvHeapTest, FreedBlockReusedForSameSizeClass)
{
    auto a = heap_->pmalloc(128);
    ASSERT_TRUE(a.isOk());
    heap_->pfree(*a);
    auto b = heap_->pmalloc(128);
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(*b, *a) << "exact size class must be recycled";
}

TEST_F(NvHeapTest, LiveBytesTracksAllocations)
{
    EXPECT_EQ(heap_->liveBytes(), 0u);
    auto a = heap_->pmalloc(100); // rounds to 112
    ASSERT_TRUE(a.isOk());
    EXPECT_EQ(heap_->liveBytes(), 112u);
    heap_->pfree(*a);
    EXPECT_EQ(heap_->liveBytes(), 0u);
}

TEST_F(NvHeapTest, AttachRebuildsStateAfterCrash)
{
    auto a = heap_->pmalloc(64);
    auto b = heap_->pmalloc(256);
    auto c = heap_->pmalloc(64);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    ASSERT_TRUE(c.isOk());
    heap_->pfree(*b);

    device_.crash();
    device_.reviveAfterCrash();

    NvHeap fresh(device_, region_);
    ASSERT_TRUE(fresh.attach().isOk());
    // Block headers were flushed at pmalloc/pfree time: both live
    // blocks survive, the freed one is reusable.
    std::vector<std::pair<PmOffset, std::uint32_t>> live;
    fresh.scanAllocated([&](PmOffset off, std::uint32_t size) {
        live.emplace_back(off, size);
    });
    ASSERT_EQ(live.size(), 2u);
    EXPECT_EQ(live[0].first, *a);
    EXPECT_EQ(live[1].first, *c);
    auto reused = fresh.pmalloc(256);
    ASSERT_TRUE(reused.isOk());
    EXPECT_EQ(*reused, *b);
}

TEST_F(NvHeapTest, ExhaustionReturnsLogFull)
{
    pager::Region tiny;
    tiny.off = 4u << 20;
    tiny.len = 4096;
    NvHeap heap(device_, tiny);
    heap.formatRegion();
    Status status = Status::ok();
    while (status.isOk())
        status = heap.pmalloc(512).status();
    EXPECT_EQ(status.code(), StatusCode::LogFull);
}

TEST_F(NvHeapTest, ResetForgetsEverything)
{
    auto a = heap_->pmalloc(64);
    ASSERT_TRUE(a.isOk());
    heap_->reset();
    EXPECT_EQ(heap_->liveBytes(), 0u);
    int live = 0;
    heap_->scanAllocated(
        [&](PmOffset, std::uint32_t) { ++live; });
    EXPECT_EQ(live, 0);
}

// --- NvwalLog ----------------------------------------------------------------

class NvwalLogTest : public ::testing::Test
{
  protected:
    NvwalLogTest() : device_(cacheSimConfig())
    {
        auto sb = Pager::format(device_, {});
        EXPECT_TRUE(sb.isOk());
        sb_ = *sb;
        log_ = std::make_unique<NvwalLog>(device_, sb_);
        log_->format();
    }

    /** A page image pair (clean base, modified copy). */
    struct PagePair
    {
        std::vector<std::uint8_t> clean;
        std::vector<std::uint8_t> data;
    };

    PagePair
    makePair(std::uint8_t base)
    {
        PagePair p;
        p.clean.assign(sb_.pageSize, base);
        p.data = p.clean;
        return p;
    }

    PmDevice device_;
    testsupport::PmCheckerGuard guard_{device_};
    Superblock sb_;
    std::unique_ptr<NvwalLog> log_;
};

TEST_F(NvwalLogTest, CommitThenFetchAppliesDiff)
{
    PageId pid = sb_.firstDataPid();
    // Base image in the database file.
    auto pair = makePair(0x00);
    device_.write(sb_.pageOffset(pid), pair.clean.data(),
                  pair.clean.size());
    device_.flushRange(sb_.pageOffset(pid), pair.clean.size());
    device_.sfence();

    // Modify two separate regions.
    std::memset(pair.data.data() + 100, 0xaa, 40);
    std::memset(pair.data.data() + 2000, 0xbb, 16);

    NvwalDirtyPage dirty{pid, pair.data.data(), pair.clean.data()};
    pm::PmStats before = device_.stats();
    ASSERT_TRUE(
        log_->commitTx(1, std::span<const NvwalDirtyPage>(&dirty, 1))
            .isOk());
    // Differential: the frames, heap headers and commit mark together
    // store far fewer bytes than the page a whole-page frame would.
    EXPECT_LT(device_.stats().since(before).storeBytes, 512u);

    std::vector<std::uint8_t> out;
    log_->fetchPage(pid, out);
    EXPECT_EQ(out, pair.data);
    EXPECT_EQ(log_->indexedPages(), 1u);
}

TEST_F(NvwalLogTest, SequentialCommitsStack)
{
    PageId pid = sb_.firstDataPid();
    auto pair = makePair(0x00);

    std::memset(pair.data.data() + 64, 0x11, 8);
    NvwalDirtyPage d1{pid, pair.data.data(), pair.clean.data()};
    ASSERT_TRUE(
        log_->commitTx(1, std::span<const NvwalDirtyPage>(&d1, 1))
            .isOk());
    pair.clean = pair.data;

    std::memset(pair.data.data() + 128, 0x22, 8);
    NvwalDirtyPage d2{pid, pair.data.data(), pair.clean.data()};
    ASSERT_TRUE(
        log_->commitTx(2, std::span<const NvwalDirtyPage>(&d2, 1))
            .isOk());

    std::vector<std::uint8_t> out;
    log_->fetchPage(pid, out);
    EXPECT_EQ(out[64], 0x11);
    EXPECT_EQ(out[128], 0x22);
}

TEST_F(NvwalLogTest, CheckpointWritesDatabaseImage)
{
    PageId pid = sb_.firstDataPid();
    auto pair = makePair(0x00);
    std::memset(pair.data.data() + 500, 0xcd, 100);
    NvwalDirtyPage dirty{pid, pair.data.data(), pair.clean.data()};
    ASSERT_TRUE(
        log_->commitTx(1, std::span<const NvwalDirtyPage>(&dirty, 1))
            .isOk());

    ASSERT_TRUE(log_->checkpoint().isOk());
    EXPECT_EQ(log_->indexedPages(), 0u);
    std::vector<std::uint8_t> db(sb_.pageSize);
    device_.readDurable(sb_.pageOffset(pid), db.data(), db.size());
    EXPECT_EQ(db, pair.data);
}

TEST_F(NvwalLogTest, RecoveryKeepsCommittedDiscardsUncommitted)
{
    PageId pid = sb_.firstDataPid();
    auto pair = makePair(0x00);
    std::memset(pair.data.data() + 300, 0xee, 24);
    NvwalDirtyPage dirty{pid, pair.data.data(), pair.clean.data()};
    ASSERT_TRUE(
        log_->commitTx(1, std::span<const NvwalDirtyPage>(&dirty, 1))
            .isOk());

    // Simulate a crash mid-commit of tx 2: a frame is allocated and
    // written but no commit frame follows; nothing was flushed.
    auto partial = log_->heap().pmalloc(64);
    ASSERT_TRUE(partial.isOk());
    device_.crash();
    device_.reviveAfterCrash();

    NvwalLog fresh(device_, sb_);
    obs::RecoveryBreakdown bd;
    ASSERT_TRUE(fresh.recover(&bd).isOk());
    std::vector<std::uint8_t> out;
    fresh.fetchPage(pid, out);
    EXPECT_EQ(out, pair.data) << "committed tx must survive";
    EXPECT_GT(bd.recordsDiscarded + bd.tornRecords, 0u);
}

TEST_F(NvwalLogTest, MultiPageCommitAtomicInRecovery)
{
    PageId a = sb_.firstDataPid();
    PageId b = a + 1;
    auto pa = makePair(0x00);
    auto pb = makePair(0x00);
    std::memset(pa.data.data() + 10, 0x77, 8);
    std::memset(pb.data.data() + 20, 0x88, 8);
    std::vector<NvwalDirtyPage> pages{
        {a, pa.data.data(), pa.clean.data()},
        {b, pb.data.data(), pb.clean.data()},
    };
    ASSERT_TRUE(
        log_->commitTx(5, std::span<const NvwalDirtyPage>(pages))
            .isOk());
    device_.crash();
    device_.reviveAfterCrash();

    NvwalLog fresh(device_, sb_);
    ASSERT_TRUE(fresh.recover().isOk());
    std::vector<std::uint8_t> out;
    fresh.fetchPage(a, out);
    EXPECT_EQ(out[10], 0x77);
    fresh.fetchPage(b, out);
    EXPECT_EQ(out[20], 0x88);
}

TEST_F(NvwalLogTest, NeedsCheckpointAtFillThreshold)
{
    EXPECT_FALSE(log_->needsCheckpoint());
    PageId pid = sb_.firstDataPid();
    auto pair = makePair(0x00);
    // Large diffs to fill the heap: rewrite the whole page each time.
    int commits = 0;
    while (!log_->needsCheckpoint() && commits < 100000) {
        pair.data.assign(sb_.pageSize,
                         static_cast<std::uint8_t>(commits + 1));
        NvwalDirtyPage dirty{pid, pair.data.data(),
                             pair.clean.data()};
        ASSERT_TRUE(log_->commitTx(
                            commits + 1,
                            std::span<const NvwalDirtyPage>(&dirty, 1))
                        .isOk());
        pair.clean = pair.data;
        ++commits;
    }
    EXPECT_TRUE(log_->needsCheckpoint());
    EXPECT_GT(commits, 10);
}

} // namespace
} // namespace fasp::wal
