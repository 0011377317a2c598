/**
 * @file
 * Unit tests for the legacy baselines: rollback journal (Figure 1a)
 * and page-granularity WAL (Figure 1b).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "pager/pager.h"
#include "pm/device.h"
#include "support/checker_guard.h"
#include "wal/journal.h"
#include "wal/legacy_wal.h"

namespace fasp::wal {
namespace {

using pager::Pager;
using pager::Superblock;
using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;

class BaselineWalTest : public ::testing::Test
{
  protected:
    BaselineWalTest()
    {
        PmConfig cfg;
        cfg.size = 24u << 20;
        cfg.mode = PmMode::CacheSim;
        device_ = std::make_unique<PmDevice>(cfg);
        guard_ = std::make_unique<testsupport::PmCheckerGuard>(*device_);
        auto sb = Pager::format(*device_, {});
        EXPECT_TRUE(sb.isOk());
        sb_ = *sb;
    }

    void
    writeDbPage(PageId pid, std::uint8_t fill)
    {
        std::vector<std::uint8_t> page(sb_.pageSize, fill);
        device_->write(sb_.pageOffset(pid), page.data(), page.size());
        device_->flushRange(sb_.pageOffset(pid), page.size());
        device_->sfence();
    }

    std::uint8_t
    durableByte(PageId pid, std::size_t off)
    {
        std::uint8_t b;
        device_->readDurable(sb_.pageOffset(pid) + off, &b, 1);
        return b;
    }

    std::unique_ptr<PmDevice> device_;
    Superblock sb_;
    // Destroyed first: sweeps for unflushed lines while the device is
    // still alive.
    std::unique_ptr<testsupport::PmCheckerGuard> guard_;
};

// --- RollbackJournal ---------------------------------------------------------

TEST_F(BaselineWalTest, JournalCommitCycle)
{
    RollbackJournal journal(*device_, sb_);
    journal.format();
    PageId pid = sb_.firstDataPid();
    writeDbPage(pid, 0x10);

    // Transaction: journal the original, seal, overwrite, invalidate.
    journal.begin();
    ASSERT_TRUE(journal.journalPage(pid).isOk());
    ASSERT_TRUE(journal.seal().isOk());
    writeDbPage(pid, 0x20);
    journal.invalidate();

    auto rolled = journal.recover();
    ASSERT_TRUE(rolled.isOk());
    EXPECT_FALSE(*rolled) << "invalidated journal must not roll back";
    EXPECT_EQ(durableByte(pid, 100), 0x20);
}

TEST_F(BaselineWalTest, SealedJournalRollsBackOnRecovery)
{
    RollbackJournal journal(*device_, sb_);
    journal.format();
    PageId pid = sb_.firstDataPid();
    writeDbPage(pid, 0x10);

    journal.begin();
    ASSERT_TRUE(journal.journalPage(pid).isOk());
    ASSERT_TRUE(journal.seal().isOk());
    // Crash mid-database-overwrite: page half new.
    writeDbPage(pid, 0x20);
    device_->crash();
    device_->reviveAfterCrash();

    RollbackJournal fresh(*device_, sb_);
    obs::RecoveryBreakdown bd;
    auto rolled = fresh.recover(&bd);
    ASSERT_TRUE(rolled.isOk());
    EXPECT_TRUE(*rolled);
    EXPECT_EQ(durableByte(pid, 100), 0x10)
        << "the original page content must be restored";
    EXPECT_EQ(bd.recordsReplayed, 1u);
}

TEST_F(BaselineWalTest, UnsealedJournalIgnored)
{
    RollbackJournal journal(*device_, sb_);
    journal.format();
    PageId pid = sb_.firstDataPid();
    writeDbPage(pid, 0x10);

    journal.begin();
    ASSERT_TRUE(journal.journalPage(pid).isOk());
    // Crash before seal: the db was never touched.
    device_->crash();
    device_->reviveAfterCrash();

    RollbackJournal fresh(*device_, sb_);
    auto rolled = fresh.recover();
    ASSERT_TRUE(rolled.isOk());
    EXPECT_FALSE(*rolled);
    EXPECT_EQ(durableByte(pid, 100), 0x10);
}

TEST_F(BaselineWalTest, JournalMultiPageRollback)
{
    RollbackJournal journal(*device_, sb_);
    journal.format();
    PageId a = sb_.firstDataPid();
    PageId b = a + 1;
    writeDbPage(a, 0x01);
    writeDbPage(b, 0x02);

    journal.begin();
    ASSERT_TRUE(journal.journalPage(a).isOk());
    ASSERT_TRUE(journal.journalPage(b).isOk());
    ASSERT_TRUE(journal.seal().isOk());
    writeDbPage(a, 0x11);
    writeDbPage(b, 0x12);
    device_->crash();
    device_->reviveAfterCrash();

    RollbackJournal fresh(*device_, sb_);
    auto rolled = fresh.recover();
    ASSERT_TRUE(rolled.isOk());
    EXPECT_TRUE(*rolled);
    EXPECT_EQ(durableByte(a, 0), 0x01);
    EXPECT_EQ(durableByte(b, 0), 0x02);
}

TEST_F(BaselineWalTest, JournalWriteAmplificationCounted)
{
    RollbackJournal journal(*device_, sb_);
    journal.format();
    PageId pid = sb_.firstDataPid();
    writeDbPage(pid, 0x10);
    journal.begin();
    pm::PmStats before = device_->stats();
    ASSERT_TRUE(journal.journalPage(pid).isOk());
    // A full page plus the entry header lands in the journal.
    EXPECT_EQ(device_->stats().since(before).storeBytes,
              8u + sb_.pageSize);
    // The journal entry is abandoned before seal() would fence it:
    // declare it harmless for the shutdown sweep.
    guard_->forgiveUnflushed();
}

// --- LegacyWal ---------------------------------------------------------------

TEST_F(BaselineWalTest, WalCommitAndFetch)
{
    LegacyWal wal(*device_, sb_);
    wal.format();
    PageId pid = sb_.firstDataPid();
    writeDbPage(pid, 0x10);

    std::vector<std::uint8_t> page(sb_.pageSize, 0x20);
    WalDirtyPage dirty{pid, page.data()};
    ASSERT_TRUE(
        wal.commitTx(1, std::span<const WalDirtyPage>(&dirty, 1))
            .isOk());

    // The database image is unchanged; reads overlay the WAL frame.
    EXPECT_EQ(durableByte(pid, 0), 0x10);
    std::vector<std::uint8_t> out;
    wal.fetchPage(pid, out);
    EXPECT_EQ(out, page);
}

TEST_F(BaselineWalTest, WalRecoveryDiscardsUncommittedTail)
{
    LegacyWal wal(*device_, sb_);
    wal.format();
    PageId pid = sb_.firstDataPid();
    writeDbPage(pid, 0x10);

    std::vector<std::uint8_t> v1(sb_.pageSize, 0x21);
    WalDirtyPage d1{pid, v1.data()};
    ASSERT_TRUE(wal.commitTx(1, std::span<const WalDirtyPage>(&d1, 1))
                    .isOk());

    // Append a second frame without a commit mark, then crash. The
    // frame bytes were flushed, but recovery must still reject it
    // because no commit frame follows.
    std::vector<std::uint8_t> v2(sb_.pageSize, 0x22);
    std::uint8_t head[32] = {};
    storeU32(head, 1);
    storeU32(head + 4, pid);
    storeU64(head + 8, 2);
    storeU64(head + 16, wal.epoch()); // current epoch: CRC-valid frame
    storeU32(head + 24, 99);
    std::uint32_t crc = crc32c(head, 28);
    crc = crc32c(v2.data(), v2.size(), crc);
    storeU32(head + 28, crc);
    PmOffset tail = sb_.logOff + 64 + (32 + sb_.pageSize) + 32;
    device_->write(tail, head, 32);
    device_->write(tail + 32, v2.data(), v2.size());
    device_->flushRange(tail, 32 + v2.size());
    device_->crash();
    device_->reviveAfterCrash();

    LegacyWal fresh(*device_, sb_);
    ASSERT_TRUE(fresh.recover().isOk());
    std::vector<std::uint8_t> out;
    fresh.fetchPage(pid, out);
    EXPECT_EQ(out, v1) << "only the committed frame may be visible";
}

TEST_F(BaselineWalTest, WalCheckpointAppliesAndTruncates)
{
    LegacyWal wal(*device_, sb_);
    wal.format();
    PageId pid = sb_.firstDataPid();
    writeDbPage(pid, 0x10);
    std::vector<std::uint8_t> page(sb_.pageSize, 0x33);
    WalDirtyPage dirty{pid, page.data()};
    ASSERT_TRUE(
        wal.commitTx(1, std::span<const WalDirtyPage>(&dirty, 1))
            .isOk());
    std::uint64_t used = wal.bytesUsed();
    EXPECT_GT(used, sb_.pageSize);

    ASSERT_TRUE(wal.checkpoint().isOk());
    EXPECT_EQ(wal.bytesUsed(), 0u);
    EXPECT_EQ(durableByte(pid, 0), 0x33);
}

TEST_F(BaselineWalTest, WalFullPageAmplification)
{
    LegacyWal wal(*device_, sb_);
    wal.format();
    PageId pid = sb_.firstDataPid();
    std::vector<std::uint8_t> page(sb_.pageSize, 0x44);
    // Change ONE byte semantically; legacy WAL still logs a whole page.
    WalDirtyPage dirty{pid, page.data()};
    pm::PmStats before = device_->stats();
    ASSERT_TRUE(
        wal.commitTx(1, std::span<const WalDirtyPage>(&dirty, 1))
            .isOk());
    EXPECT_GE(device_->stats().since(before).storeBytes, sb_.pageSize)
        << "page-granularity logging amplifies writes";
}

TEST_F(BaselineWalTest, WalRecoveryAfterCleanCommits)
{
    {
        LegacyWal wal(*device_, sb_);
        wal.format();
        PageId pid = sb_.firstDataPid();
        std::vector<std::uint8_t> page(sb_.pageSize, 0x55);
        WalDirtyPage dirty{pid, page.data()};
        ASSERT_TRUE(
            wal.commitTx(1, std::span<const WalDirtyPage>(&dirty, 1))
                .isOk());
    }
    device_->crash();
    device_->reviveAfterCrash();
    LegacyWal fresh(*device_, sb_);
    ASSERT_TRUE(fresh.recover().isOk());
    std::vector<std::uint8_t> out;
    fresh.fetchPage(sb_.firstDataPid(), out);
    EXPECT_EQ(out[0], 0x55);
}

} // namespace
} // namespace fasp::wal
