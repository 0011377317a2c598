/**
 * @file
 * Unit tests for the persistency-ordering checker: the per-line state
 * machine, the transaction write-set checks, scratch exemptions, crash
 * handling, and the interaction with CrashPolicy::TornLines (a fenced
 * line must never be reported at risk of tearing; an unfenced dirty
 * one must be).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pm/checker.h"
#include "pm/device.h"

namespace fasp::pm {
namespace {

using LineState = PersistencyChecker::LineState;

class CheckerTest : public ::testing::Test
{
  protected:
    CheckerTest() : device_(makeConfig())
    {
        device_.setChecker(&checker_);
    }

    ~CheckerTest() override { device_.setChecker(nullptr); }

    static PmConfig makeConfig()
    {
        PmConfig cfg;
        cfg.size = 1u << 20;
        cfg.mode = PmMode::CacheSim;
        return cfg;
    }

    void store(PmOffset off, std::uint8_t byte, std::size_t len = 8)
    {
        std::vector<std::uint8_t> buf(len, byte);
        device_.write(off, buf.data(), buf.size());
    }

    PmDevice device_;
    PersistencyChecker checker_;
};

TEST_F(CheckerTest, StoreFlushFenceReachesFenced)
{
    store(0, 0x11);
    EXPECT_EQ(checker_.lineState(0), LineState::Dirty);
    device_.clflush(0);
    EXPECT_EQ(checker_.lineState(0), LineState::Flushed);
    device_.sfence();
    EXPECT_EQ(checker_.lineState(0), LineState::Fenced);

    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
}

TEST_F(CheckerTest, SpanningStoreDirtiesEveryLine)
{
    store(60, 0x22, 72); // touches lines 0, 64 and 128
    EXPECT_EQ(checker_.lineState(0), LineState::Dirty);
    EXPECT_EQ(checker_.lineState(64), LineState::Dirty);
    EXPECT_EQ(checker_.lineState(128), LineState::Dirty);
    EXPECT_EQ(checker_.lineState(192), LineState::Clean);
}

TEST_F(CheckerTest, DirtyAtShutdownDetected)
{
    store(128, 0x33);
    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_EQ(checker_.report().count(ViolationKind::DirtyAtShutdown),
              1u);
    EXPECT_EQ(checker_.report().total(), 1u);
}

TEST_F(CheckerTest, FlushedButUnfencedAtShutdownDetected)
{
    store(128, 0x33);
    device_.clflush(128);
    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_EQ(checker_.report().count(ViolationKind::DirtyAtShutdown),
              1u);
}

TEST_F(CheckerTest, RedundantFlushOfFlushedLineDetected)
{
    store(0, 0x44);
    device_.clflush(0);
    device_.clflush(0); // nothing left to write back
    EXPECT_EQ(checker_.report().count(ViolationKind::RedundantFlush),
              1u);
}

TEST_F(CheckerTest, RedundantFlushOfCleanLineDetected)
{
    device_.clflush(256);
    EXPECT_EQ(checker_.report().count(ViolationKind::RedundantFlush),
              1u);
}

TEST_F(CheckerTest, StoreInFlushFenceWindowDetected)
{
    store(0, 0x55);
    device_.clflush(0);
    store(0, 0x56); // lands between the flush and its fence
    device_.sfence();
    EXPECT_EQ(
        checker_.report().count(ViolationKind::StoreInFlushFenceWindow),
        1u);
}

TEST_F(CheckerTest, HelperFlushAfterTagClearIsNotRedundant)
{
    // A helper that saw a tagged word may reach its flush after the
    // owner already flushed AND cleared; the flush is redundant only
    // by timing. Lines that ever held a tag are exempt from V2.
    store(0, 0x45);
    device_.clflush(0);
    device_.sfence();
    checker_.onTagSet(0, device_.eventCount(), "pcas-test");
    checker_.onTagClear(0);
    device_.clflush(0); // the helper's late flush
    EXPECT_EQ(checker_.report().count(ViolationKind::RedundantFlush),
              0u);
}

TEST_F(CheckerTest, HelperFlushBeforeOwnerReportsTagIsNotRedundant)
{
    // The owner's CAS has landed but its onTagSet has not run yet; two
    // helpers that saw the tag flush the line back to back.
    store(0, 0x46);
    checker_.onTagSeen(0);
    device_.clflush(0);
    device_.sfence();
    checker_.onTagSeen(0);
    device_.clflush(0); // the second helper's flush
    EXPECT_EQ(checker_.report().count(ViolationKind::RedundantFlush),
              0u);
}

TEST_F(CheckerTest, CasStoreInFlushFenceWindowIsProtocolLegal)
{
    // A pcas word store (publish or tag clear) may land in another
    // thread's flush->fence window: the word is atomic and its issuer
    // settles its own durability, so no V4 (DESIGN.md §14).
    std::uint64_t v = 0;
    std::memcpy(&v, "\x55\x55\x55\x55\x55\x55\x55\x55", 8);
    store(0, 0x55);
    device_.clflush(0);
    std::uint64_t expected = v;
    ASSERT_TRUE(device_.casU64(0, expected, 42));
    device_.sfence();
    EXPECT_EQ(
        checker_.report().count(ViolationKind::StoreInFlushFenceWindow),
        0u);

    // The line re-dirtied all the same; the CAS issuer still owes the
    // flush + fence before shutdown.
    device_.clflush(0);
    device_.sfence();
    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
}

TEST_F(CheckerTest, ReflushBeforeFenceClosesTheWindow)
{
    // Adjacent log frames share boundary cache lines: the second
    // frame's store re-dirties a flushed line, but its own flush
    // covers it again before the fence. Not a violation.
    store(0, 0x55);
    device_.clflush(0);
    store(0, 0x56);
    device_.clflush(0);
    device_.sfence();
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
    EXPECT_EQ(checker_.lineState(0), LineState::Fenced);
}

TEST_F(CheckerTest, UnflushedStoreAtCommitDetected)
{
    device_.txBegin();
    store(0, 0x66);
    device_.txCommitPoint();
    EXPECT_EQ(
        checker_.report().count(ViolationKind::UnflushedStoreAtCommit),
        1u);
}

TEST_F(CheckerTest, UnfencedFlushAtCommitDetected)
{
    device_.txBegin();
    store(0, 0x77);
    device_.clflush(0);
    device_.txCommitPoint(); // flush never ordered by a fence
    EXPECT_EQ(
        checker_.report().count(ViolationKind::UnfencedFlushAtCommit),
        1u);
}

TEST_F(CheckerTest, FencedWriteSetPassesCommitPoint)
{
    device_.txBegin();
    store(0, 0x88);
    store(64, 0x89);
    device_.flushRange(0, 128);
    device_.sfence();
    device_.txCommitPoint();
    store(4096, 0x8a); // the commit mark itself
    device_.clflush(4096);
    device_.sfence();
    device_.txEnd(true);
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
}

TEST_F(CheckerTest, CommittedTxEndRechecksWriteSet)
{
    device_.txBegin();
    store(0, 0x99);
    device_.txEnd(true);
    EXPECT_EQ(
        checker_.report().count(ViolationKind::UnflushedStoreAtCommit),
        1u);
}

TEST_F(CheckerTest, AbortedTxForgivesItsDirtyLines)
{
    device_.txBegin();
    store(0, 0xaa);
    device_.txEnd(false);
    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
}

TEST_F(CheckerTest, NestedTxBeginJoinsEnclosingTransaction)
{
    device_.txBegin();
    store(0, 0xab);
    device_.txBegin(); // join, must not drop line 0 from the set
    store(64, 0xac);
    device_.txCommitPoint();
    EXPECT_EQ(
        checker_.report().count(ViolationKind::UnflushedStoreAtCommit),
        2u);
}

TEST_F(CheckerTest, ScratchStoresAreExemptFromDurabilityChecks)
{
    std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    device_.txBegin();
    device_.writeScratch(0, buf, sizeof(buf));
    device_.txCommitPoint();
    device_.txEnd(true);
    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
}

TEST_F(CheckerTest, NonScratchStoreUpgradesScratchLine)
{
    std::uint8_t buf[8] = {};
    device_.writeScratch(0, buf, sizeof(buf));
    store(0, 0xad); // real data on the same line
    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_EQ(checker_.report().count(ViolationKind::DirtyAtShutdown),
              1u);
}

TEST_F(CheckerTest, MarkScratchExemptsPendingStores)
{
    store(0, 0xae);
    store(64, 0xaf);
    device_.markScratch(0, 128);
    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
}

TEST_F(CheckerTest, ForgiveUnflushedClearsPendingState)
{
    store(0, 0xb0);
    device_.clflush(64); // redundant flushes are NOT forgiven
    checker_.forgiveUnflushed();
    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_EQ(checker_.report().count(ViolationKind::RedundantFlush),
              1u);
    EXPECT_EQ(checker_.report().count(ViolationKind::DirtyAtShutdown),
              0u);
}

TEST_F(CheckerTest, ViolationCarriesSiteAndTrace)
{
    {
        SiteScope site(device_, "checker-test-site");
        store(0, 0xb1);
    }
    checker_.checkCleanShutdown(device_.eventCount());
    ASSERT_EQ(checker_.report().violations().size(), 1u);
    const Violation &v = checker_.report().violations()[0];
    EXPECT_EQ(v.kind, ViolationKind::DirtyAtShutdown);
    EXPECT_EQ(v.lineBase, 0u);
    ASSERT_GE(v.traceLen, 1u);
    ASSERT_NE(v.trace[0].site, nullptr);
    EXPECT_STREQ(v.trace[0].site, "checker-test-site");
    EXPECT_NE(checker_.report().toString().find("checker-test-site"),
              std::string::npos);
}

TEST_F(CheckerTest, ReportCapsStoredViolationsButKeepsCounting)
{
    for (PmOffset line = 0; line < (CheckerReport::kMaxStored + 10) * 64;
         line += 64) {
        device_.clflush(line); // all redundant
    }
    EXPECT_EQ(checker_.report().total(),
              CheckerReport::kMaxStored + 10);
    EXPECT_EQ(checker_.report().violations().size(),
              CheckerReport::kMaxStored);
    EXPECT_EQ(checker_.report().dropped(), 10u);
}

TEST_F(CheckerTest, CrashResetsStateAndSnapshotsAtRiskLines)
{
    store(0, 0xb2);                 // dirty: at risk
    store(64, 0xb3);
    device_.clflush(64);
    device_.sfence();               // fenced: safe
    device_.crash();

    EXPECT_TRUE(checker_.wasAtRiskAtCrash(0));
    EXPECT_FALSE(checker_.wasAtRiskAtCrash(64));
    EXPECT_FALSE(checker_.txActive());

    device_.reviveAfterCrash();
    EXPECT_EQ(checker_.lineState(0), LineState::Clean);
    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
}

// --- CrashPolicy::TornLines x checker ---------------------------------------
//
// The contract the checker enforces is exactly the one TornLines
// attacks: a FENCED line is durable in its entirety and must never be
// torn by a crash; a line still DIRTY at the crash is fair game.

TEST(CheckerTornLinesTest, FencedLineIsNeverTorn)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        PmConfig cfg;
        cfg.size = 1u << 20;
        cfg.mode = PmMode::CacheSim;
        cfg.crashPolicy = CrashPolicy::TornLines;
        cfg.crashSeed = seed;
        PmDevice device(cfg);
        PersistencyChecker checker;
        device.setChecker(&checker);

        std::vector<std::uint8_t> fenced(kCacheLineSize, 0xfe);
        device.write(0, fenced.data(), fenced.size());
        device.clflush(0);
        device.sfence();

        std::vector<std::uint8_t> unfenced(kCacheLineSize, 0xdf);
        device.write(4096, unfenced.data(), unfenced.size());

        device.crash();
        EXPECT_FALSE(checker.wasAtRiskAtCrash(0))
            << "fenced line reported at risk (seed " << seed << ")";
        EXPECT_TRUE(checker.wasAtRiskAtCrash(4096))
            << "unfenced line not reported at risk (seed " << seed
            << ")";

        // The fenced line survives bit-exact under every seed.
        std::vector<std::uint8_t> out(kCacheLineSize);
        device.readDurable(0, out.data(), out.size());
        EXPECT_EQ(out, fenced) << "fenced line torn (seed " << seed
                               << ")";
        device.setChecker(nullptr);
    }
}

TEST(CheckerTornLinesTest, UnfencedLineCanTearAndIsFlaggedAtRisk)
{
    // Scan seeds until the adversary actually tears the unfenced line
    // (some words persist, some do not). The checker must have flagged
    // that line as at-risk — that is the coupling under test.
    bool saw_torn = false;
    for (std::uint64_t seed = 1; seed <= 64 && !saw_torn; ++seed) {
        PmConfig cfg;
        cfg.size = 1u << 20;
        cfg.mode = PmMode::CacheSim;
        cfg.crashPolicy = CrashPolicy::TornLines;
        cfg.crashSeed = seed;
        PmDevice device(cfg);
        PersistencyChecker checker;
        device.setChecker(&checker);

        std::vector<std::uint8_t> data(kCacheLineSize, 0xd7);
        device.write(4096, data.data(), data.size());
        device.crash();

        std::vector<std::uint8_t> out(kCacheLineSize);
        device.readDurable(4096, out.data(), out.size());
        bool any_new = false;
        bool any_old = false;
        for (std::size_t w = 0; w < kCacheLineSize; w += 8) {
            if (out[w] == 0xd7)
                any_new = true;
            else
                any_old = true;
        }
        if (any_new && any_old) {
            saw_torn = true;
            EXPECT_TRUE(checker.wasAtRiskAtCrash(4096))
                << "torn line was not flagged at-risk (seed " << seed
                << ")";
        }
        device.setChecker(nullptr);
    }
    EXPECT_TRUE(saw_torn)
        << "TornLines never tore an unfenced line across 64 seeds";
}

} // namespace
} // namespace fasp::pm
