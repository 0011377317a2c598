/**
 * @file
 * Unit tests for the persistent CAS layer (DESIGN.md §14): the
 * dirty-flag protocol of cas(), helping semantics of read(), the V6/V7
 * checker couplings, atomicity under an exhaustive TornLines
 * crash-point sweep, and a multi-threaded stress run (the TSan CI leg
 * executes this binary).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "pm/checker.h"
#include "pm/crash.h"
#include "pm/device.h"
#include "pm/pcas.h"

namespace fasp::pm {
namespace {

constexpr PmOffset kWordA = 0;

PmConfig
makeConfig()
{
    PmConfig cfg;
    cfg.size = 1u << 20;
    cfg.mode = PmMode::CacheSim;
    return cfg;
}

/** Write @p v at @p off and make it durably fenced, so TornLines can
 *  never tear the baseline value. */
void
initWord(PmDevice &device, PmOffset off, std::uint64_t v)
{
    device.writeU64(off, v);
    device.clflush(off);
    device.sfence();
}

class PcasTest : public ::testing::Test
{
  protected:
    PcasTest()
        : device_(makeConfig()), pcas_(device_, PcasConfig{})
    {
        device_.setChecker(&checker_);
    }

    ~PcasTest() override { device_.setChecker(nullptr); }

    PmDevice device_;
    PersistencyChecker checker_;
    Pcas pcas_;
};

TEST_F(PcasTest, CasPublishesDurablyAndIsCheckerClean)
{
    initWord(device_, kWordA, 7);
    ASSERT_EQ(pcas_.cas(kWordA, 7, 9), PcasResult::Ok);
    EXPECT_EQ(pcas_.read(kWordA), 9u);
    EXPECT_EQ(pcas_.stats().casCommits.load(), 1u);
    EXPECT_EQ(checker_.taggedWordCount(), 0u);

    // The committed value is already durable even though the tag clear
    // is lazy: pcasStrip of the durable image must read back 9.
    std::uint64_t durable = 0;
    device_.readDurable(kWordA, &durable, 8);
    EXPECT_EQ(pcasStrip(durable), 9u);

    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
}

TEST_F(PcasTest, CasWrongExpectedIsConflict)
{
    initWord(device_, kWordA, 7);
    EXPECT_EQ(pcas_.cas(kWordA, 8, 9), PcasResult::Conflict);
    EXPECT_EQ(pcas_.read(kWordA), 7u);
    EXPECT_EQ(pcas_.stats().casConflicts.load(), 1u);
}

TEST_F(PcasTest, CasInjectedFailuresExhaustRetryBudget)
{
    PcasConfig cfg;
    cfg.failProbability = 1.0;
    cfg.maxRetries = 3;
    pcas_.setConfig(cfg);

    initWord(device_, kWordA, 7);
    EXPECT_EQ(pcas_.cas(kWordA, 7, 9), PcasResult::Exhausted);
    EXPECT_EQ(pcas_.read(kWordA), 7u);
    EXPECT_EQ(pcas_.stats().casExhausted.load(), 1u);
    EXPECT_EQ(pcas_.stats().casInjected.load(), 3u);
}

TEST_F(PcasTest, ReadHelpsForeignTagToDurability)
{
    // Simulate another thread caught between publish and clear: the
    // word carries a dirty tag the checker knows about.
    initWord(device_, kWordA, 7);
    std::uint64_t expected = 7;
    device_.casU64(kWordA, expected, 9 | kPcasDirtyBit);
    checker_.onTagSet(kWordA, device_.eventCount(), "pcas-test");
    ASSERT_EQ(checker_.taggedWordCount(), 1u);

    // read() must flush + fence + clear, never return the raw tag.
    EXPECT_EQ(pcas_.read(kWordA), 9u);
    EXPECT_EQ(pcas_.stats().helps.load(), 1u);
    EXPECT_EQ(checker_.taggedWordCount(), 0u);

    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_TRUE(checker_.report().empty())
        << checker_.report().toString();
}

TEST_F(PcasTest, PlainReadOfTaggedWordIsV6)
{
    initWord(device_, kWordA, 7);
    std::uint64_t expected = 7;
    device_.casU64(kWordA, expected, 9 | kPcasDirtyBit);
    checker_.onTagSet(kWordA, device_.eventCount(), "pcas-test");

    (void)device_.readU64(kWordA); // consumes the tag without helping
    EXPECT_EQ(checker_.report().count(ViolationKind::TaggedRead), 1u);
    checker_.onTagClear(kWordA);
}

TEST_F(PcasTest, UnclearedTagAtCleanShutdownIsV7)
{
    initWord(device_, kWordA, 7);
    std::uint64_t expected = 7;
    device_.casU64(kWordA, expected, 9 | kPcasDirtyBit);
    device_.clflush(kWordA);
    device_.sfence();
    checker_.onTagSet(kWordA, device_.eventCount(), "pcas-test");

    checker_.checkCleanShutdown(device_.eventCount());
    EXPECT_EQ(checker_.report().count(ViolationKind::UnclearedTag), 1u);
}

// --- TornLines crash-point sweeps -------------------------------------------
//
// Crash at every persistence event a cas() raises, under the
// adversarial TornLines image composer, and check the protocol's core
// promise: the durable image never exposes a state the recovery
// contract cannot resolve to "old" or "new".

TEST(PcasCrashSweepTest, CasIsAtomicAtEveryCrashPoint)
{
    constexpr std::uint64_t kOld = 7, kNew = 9;
    bool completed = false;
    for (std::uint64_t k = 0; k < 64 && !completed; ++k) {
        PmConfig cfg = makeConfig();
        cfg.crashPolicy = CrashPolicy::TornLines;
        cfg.crashSeed = 1000 + k;
        PmDevice device(cfg);
        Pcas pcas(device, PcasConfig{});
        initWord(device, kWordA, kOld);

        PointCrashInjector injector(device.eventCount() + k);
        device.setCrashInjector(&injector);
        try {
            ASSERT_EQ(pcas.cas(kWordA, kOld, kNew), PcasResult::Ok);
            completed = true; // sweep covered every event of one cas
        } catch (const CrashException &) {
            std::uint64_t durable = 0;
            device.readDurable(kWordA, &durable, 8);
            std::uint64_t v = pcasStrip(durable);
            EXPECT_TRUE(v == kOld || v == kNew)
                << "torn cas value " << v << " at crash point " << k;
        }
        device.setCrashInjector(nullptr);
    }
    EXPECT_TRUE(completed)
        << "cas never ran to completion within the sweep bound";
}

// --- Concurrency stress (run under TSan by the tsan CI job) -----------------

TEST(PcasStressTest, ConcurrentCasCountsEveryIncrement)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kIncrements = 250;
    constexpr std::uint64_t kStep = 2;

    PmDevice device(makeConfig());
    PersistencyChecker::Config ccfg;
    ccfg.trackRedundantFlush = false; // helping races flush flushed lines
    PersistencyChecker checker(ccfg);
    device.setChecker(&checker);
    Pcas pcas(device, PcasConfig{});
    initWord(device, kWordA, 0);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (unsigned i = 0; i < kIncrements; ++i) {
                for (;;) {
                    std::uint64_t cur = pcas.read(kWordA);
                    if (pcas.cas(kWordA, cur, cur + kStep) ==
                        PcasResult::Ok)
                        break;
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(pcas.read(kWordA), kThreads * kIncrements * kStep);
    EXPECT_EQ(pcas.stats().casCommits.load(), kThreads * kIncrements);
    EXPECT_EQ(checker.taggedWordCount(), 0u);
    checker.checkCleanShutdown(device.eventCount());
    EXPECT_TRUE(checker.report().empty())
        << checker.report().toString();
    device.setChecker(nullptr);
}

} // namespace
} // namespace fasp::pm
