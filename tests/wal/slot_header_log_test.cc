/**
 * @file
 * Unit tests for the slot-header log: append/commit/checkpoint cycle,
 * recovery with and without a commit mark, torn-tail handling, and
 * idempotent replay.
 */

#include <gtest/gtest.h>

#include <vector>

#include "pager/pager.h"
#include "pm/device.h"
#include "support/checker_guard.h"
#include "wal/slot_header_log.h"

namespace fasp::wal {
namespace {

using pager::Pager;
using pager::Superblock;
using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;

class SlotHeaderLogTest : public ::testing::Test
{
  protected:
    SlotHeaderLogTest()
    {
        PmConfig cfg;
        cfg.size = 24u << 20;
        cfg.mode = PmMode::CacheSim;
        device_ = std::make_unique<PmDevice>(cfg);
        guard_ = std::make_unique<testsupport::PmCheckerGuard>(*device_);
        auto sb = Pager::format(*device_, {});
        EXPECT_TRUE(sb.isOk());
        sb_ = *sb;
        log_ = std::make_unique<SlotHeaderLog>(*device_, sb_);
    }

    std::vector<std::uint8_t>
    header(std::uint8_t fill, std::size_t len = 20)
    {
        return std::vector<std::uint8_t>(len, fill);
    }

    /** Durable header bytes of page @p pid. */
    std::vector<std::uint8_t>
    durableHeader(PageId pid, std::size_t len)
    {
        std::vector<std::uint8_t> out(len);
        device_->readDurable(sb_.pageOffset(pid), out.data(), len);
        return out;
    }

    std::unique_ptr<PmDevice> device_;
    Superblock sb_;
    std::unique_ptr<SlotHeaderLog> log_;
    // Destroyed first: sweeps for unflushed lines while the device is
    // still alive.
    std::unique_ptr<testsupport::PmCheckerGuard> guard_;
};

TEST_F(SlotHeaderLogTest, CommitAndCheckpointAppliesHeaders)
{
    PageId pid = sb_.firstDataPid();
    auto h = header(0xaa);
    log_->begin();
    ASSERT_TRUE(log_->appendPageHeader(
                        pid, std::span<const std::uint8_t>(h))
                    .isOk());
    pm::PmStats before = device_->stats();
    ASSERT_TRUE(log_->commit(1).isOk());
    // One commit mark: a 4-byte entry head plus its 20-byte body.
    EXPECT_EQ(device_->stats().since(before).storeBytes, 4u + 20u);

    before = device_->stats();
    ASSERT_TRUE(log_->checkpointAndTruncate().isOk());
    EXPECT_EQ(durableHeader(pid, h.size()), h);
    // The header is applied once, then the 20-byte log header bumps
    // the epoch.
    EXPECT_EQ(device_->stats().since(before).storeBytes, h.size() + 20u);
}

TEST_F(SlotHeaderLogTest, UncommittedEntriesDiscardedOnRecovery)
{
    PageId pid = sb_.firstDataPid();
    auto h = header(0xbb);
    log_->begin();
    ASSERT_TRUE(log_->appendPageHeader(
                        pid, std::span<const std::uint8_t>(h))
                    .isOk());
    // Entries flushed but NO commit mark: simulate the crash window.
    device_->crash();
    device_->reviveAfterCrash();

    SlotHeaderLog fresh(*device_, sb_);
    auto result = fresh.recover();
    ASSERT_TRUE(result.isOk());
    EXPECT_FALSE(result->replayed);
    // The page was never touched (paper §4.4: recovery is trivial).
    auto durable = durableHeader(pid, h.size());
    EXPECT_NE(durable, h);
}

TEST_F(SlotHeaderLogTest, CommittedButNotCheckpointedReplays)
{
    PageId pid = sb_.firstDataPid();
    auto h = header(0xcc);
    log_->begin();
    ASSERT_TRUE(log_->appendPageHeader(
                        pid, std::span<const std::uint8_t>(h))
                    .isOk());
    ASSERT_TRUE(log_->commit(2).isOk());
    // Crash before checkpoint: the commit mark is durable.
    device_->crash();
    device_->reviveAfterCrash();

    SlotHeaderLog fresh(*device_, sb_);
    auto result = fresh.recover();
    ASSERT_TRUE(result.isOk());
    EXPECT_TRUE(result->replayed);
    ASSERT_EQ(result->touchedPages.size(), 1u);
    EXPECT_EQ(result->touchedPages[0], pid);
    EXPECT_EQ(durableHeader(pid, h.size()), h);
}

TEST_F(SlotHeaderLogTest, RecoveryIsIdempotent)
{
    PageId pid = sb_.firstDataPid();
    auto h = header(0xdd);
    log_->begin();
    ASSERT_TRUE(log_->appendPageHeader(
                        pid, std::span<const std::uint8_t>(h))
                    .isOk());
    ASSERT_TRUE(log_->commit(3).isOk());
    device_->crash();
    device_->reviveAfterCrash();

    // First recovery replays and truncates; the second finds an empty
    // log and does nothing.
    SlotHeaderLog first(*device_, sb_);
    ASSERT_TRUE(first.recover().isOk());
    SlotHeaderLog second(*device_, sb_);
    auto result = second.recover();
    ASSERT_TRUE(result.isOk());
    EXPECT_FALSE(result->replayed);
    EXPECT_EQ(durableHeader(pid, h.size()), h);
}

TEST_F(SlotHeaderLogTest, AllocFreeDeltasApplyToBitmap)
{
    PageId target = sb_.firstDataPid() + 5;
    log_->begin();
    ASSERT_TRUE(log_->appendPageAlloc(target).isOk());
    ASSERT_TRUE(log_->commit(4).isOk());
    ASSERT_TRUE(log_->checkpointAndTruncate().isOk());

    std::vector<std::uint8_t> bitmap;
    Pager::loadBitmap(*device_, sb_, bitmap);
    pager::VectorBitmapIO io(bitmap);
    pager::PageAllocator alloc(io, sb_);
    EXPECT_TRUE(alloc.isAllocated(target));

    log_->begin();
    ASSERT_TRUE(log_->appendPageFree(target).isOk());
    ASSERT_TRUE(log_->commit(5).isOk());
    ASSERT_TRUE(log_->checkpointAndTruncate().isOk());
    Pager::loadBitmap(*device_, sb_, bitmap);
    EXPECT_FALSE(alloc.isAllocated(target));
}

TEST_F(SlotHeaderLogTest, MultiplePagesOneCommit)
{
    PageId a = sb_.firstDataPid();
    PageId b = a + 1;
    auto ha = header(0x11, 30);
    auto hb = header(0x22, 50);
    log_->begin();
    ASSERT_TRUE(
        log_->appendPageHeader(a, std::span<const std::uint8_t>(ha))
            .isOk());
    ASSERT_TRUE(
        log_->appendPageHeader(b, std::span<const std::uint8_t>(hb))
            .isOk());
    ASSERT_TRUE(log_->appendPageAlloc(b).isOk());
    ASSERT_TRUE(log_->commit(6).isOk());
    ASSERT_TRUE(log_->checkpointAndTruncate().isOk());
    EXPECT_EQ(durableHeader(a, ha.size()), ha);
    EXPECT_EQ(durableHeader(b, hb.size()), hb);
}

TEST_F(SlotHeaderLogTest, TornCommitMarkIsRejected)
{
    // With the TornLines policy the commit mark may persist partially;
    // the CRC must catch it and recovery must discard the tx.
    PmConfig cfg;
    cfg.size = 24u << 20;
    cfg.mode = PmMode::CacheSim;
    cfg.crashPolicy = pm::CrashPolicy::TornLines;
    cfg.crashSeed = 4242;
    PmDevice device(cfg);
    testsupport::PmCheckerGuard guard(device);
    auto sb = Pager::format(device, {});
    ASSERT_TRUE(sb.isOk());

    SlotHeaderLog log(device, *sb);
    PageId pid = sb->firstDataPid();
    std::vector<std::uint8_t> h(24, 0xee);
    log.begin();
    ASSERT_TRUE(
        log.appendPageHeader(pid, std::span<const std::uint8_t>(h))
            .isOk());
    // Write entries and the commit mark but crash before any flush:
    // torn persistence of arbitrary words.
    // The header entry occupies 4 + 6 + 24 bytes; forge a commit mark
    // right after it whose CRC field (zeros) cannot match.
    std::uint8_t fake_commit[16] = {4, 0, 12, 0};
    device.write(sb->logOff + 64 + 4 + 6 + h.size(), fake_commit, 16);
    device.crash();
    device.reviveAfterCrash();

    SlotHeaderLog fresh(device, *sb);
    auto result = fresh.recover();
    ASSERT_TRUE(result.isOk());
    EXPECT_FALSE(result->replayed);
}

TEST_F(SlotHeaderLogTest, LogFullReported)
{
    log_->begin();
    std::vector<std::uint8_t> big(sb_.pageSize / 2, 0x33);
    Status status = Status::ok();
    int appended = 0;
    while (status.isOk()) {
        status = log_->appendPageHeader(
            sb_.firstDataPid(), std::span<const std::uint8_t>(big));
        ++appended;
    }
    EXPECT_EQ(status.code(), StatusCode::LogFull);
    EXPECT_GT(appended, 2);
    // The full log is abandoned mid-transaction, never committed:
    // declare the stranded entries harmless for the shutdown sweep.
    guard_->forgiveUnflushed();
}

TEST_F(SlotHeaderLogTest, EmptyCommitIsHarmless)
{
    log_->begin();
    ASSERT_TRUE(log_->commit(9).isOk());
    ASSERT_TRUE(log_->checkpointAndTruncate().isOk());
    SlotHeaderLog fresh(*device_, sb_);
    auto result = fresh.recover();
    ASSERT_TRUE(result.isOk());
    EXPECT_FALSE(result->replayed);
}

} // namespace
} // namespace fasp::wal
