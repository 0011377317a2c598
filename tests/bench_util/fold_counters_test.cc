/**
 * @file
 * foldCounters: every core.*, pager.latch.* and htm.* counter an
 * export carries is folded from the one stats struct that counts its
 * event, over the measured phase only (DESIGN.md §11).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/runner.h"
#include "core/fasp_engine.h"
#include "obs/metrics.h"

namespace fasp::benchutil {
namespace {

using core::EngineConfig;
using core::EngineKind;
using core::InPlaceCommitVia;

/** The global registry's non-zero folded counters (pager.page_allocs
 *  and pager.page_frees are still counted at their call sites). */
std::map<std::string, std::uint64_t>
foldedCounters()
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] :
         obs::MetricsRegistry::global().counters()) {
        if (value != 0 && name.rfind("pager.page_", 0) != 0)
            out[name] = value;
    }
    return out;
}

/** Change of one atomic stats field from @p a to @p b. */
template <typename T>
std::uint64_t
delta(const T &a, const T &b)
{
    return b.load() - a.load();
}

/**
 * The table: each exported counter against its stats expression over
 * [before, after], non-zero entries only.
 */
std::map<std::string, std::uint64_t>
expectedCounters(const EngineCounters &before, const EngineCounters &after)
{
    const core::EngineStats &e0 = before.engine, &e = after.engine;
    const pm::PcasStats &p0 = before.pcas, &p = after.pcas;
    const htm::RtmStats &r0 = before.rtm, &r = after.rtm;
    const LatchStats &l0 = before.latches, &l = after.latches;

    std::map<std::string, std::uint64_t> all = {
        {"core.tx.commits", delta(e0.txCommitted, e.txCommitted)},
        {"core.tx.rollbacks", delta(e0.txRolledBack, e.txRolledBack)},
        {"core.tx.latch_conflicts", l.conflicts - l0.conflicts},
        {"pager.latch.conflicts", l.conflicts - l0.conflicts},
        {"pager.latch.shared_acquires",
         l.sharedAcquires - l0.sharedAcquires},
        {"pager.latch.exclusive_acquires",
         l.exclusiveAcquires - l0.exclusiveAcquires},
        {"pager.latch.upgrades", l.upgrades - l0.upgrades},
        {"core.tx.inplace_fallbacks",
         delta(r0.fallbacks, r.fallbacks) +
             delta(e0.pcasFallbacks, e.pcasFallbacks)},
        {"core.pcas.commits",
         after.commitViaPcas ? delta(e0.inPlaceCommits, e.inPlaceCommits)
                             : 0},
        {"core.pcas.fallbacks", delta(e0.pcasFallbacks, e.pcasFallbacks)},
        {"core.pcas.conflicts", delta(p0.casConflicts, p.casConflicts)},
        {"core.pcas.exhausted", delta(p0.casExhausted, p.casExhausted)},
        {"htm.commits", delta(r0.commits, r.commits)},
        {"htm.fallbacks", delta(r0.fallbacks, r.fallbacks)},
        {"htm.aborts.explicit", delta(r0.abortsExplicit, r.abortsExplicit)},
        {"htm.aborts.injected", delta(r0.abortsInjected, r.abortsInjected)},
        {"htm.aborts.contention",
         delta(r0.abortsContention, r.abortsContention)},
        {"htm.aborts.capacity", delta(r0.abortsCapacity, r.abortsCapacity)},
    };
    std::map<std::string, std::uint64_t> nonzero;
    for (const auto &[name, value] : all)
        if (value != 0)
            nonzero[name] = value;
    return nonzero;
}

class FoldCountersTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::MetricsRegistry::global().reset();
        obs::setEnabled(true);
    }
    void TearDown() override { obs::setEnabled(false); }

    /**
     * Format a FAST engine, then measure: 300 single-key inserts plus
     * one transaction that loses a latch conflict to an open writer and
     * rolls back. Folds the measured phase and returns its endpoints.
     */
    void runMeasured(const EngineConfig &cfg, EngineCounters &before,
                     EngineCounters &after)
    {
        pm::PmConfig pm_cfg;
        pm_cfg.size = 32u << 20;
        pm::PmDevice device(pm_cfg);
        auto engine_res = core::Engine::create(device, cfg, true);
        ASSERT_TRUE(engine_res.isOk());
        core::Engine &engine = **engine_res;
        auto tree_res = engine.createTree(1);
        ASSERT_TRUE(tree_res.isOk());
        btree::BTree tree = *tree_res;

        before = EngineCounters::of(engine);
        // Setup committed work the fold must leave out.
        ASSERT_GT(before.engine.txCommitted.load(), 0u);

        std::vector<std::uint8_t> value(24, 0x5a);
        for (std::uint64_t key = 1; key <= 300; ++key)
            ASSERT_TRUE(engine.insert(tree, key * 7919, value).isOk());

        auto writer = engine.begin();
        ASSERT_TRUE(tree.insert(writer->pageIO(), 1, value).isOk());
        std::thread loser([&engine, &tree, &value] {
            auto tx = engine.begin();
            EXPECT_THROW(tree.insert(tx->pageIO(), 2, value),
                         LatchConflict);
            tx->rollback();
        });
        loser.join();
        ASSERT_TRUE(writer->commit().isOk());

        after = EngineCounters::of(engine);
        foldCounters(engine, before);
    }
};

TEST_F(FoldCountersTest, RtmPinnedAndForcedToFallBack)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::Fast;
    cfg.inPlaceCommitVia = InPlaceCommitVia::Rtm;
    cfg.rtm.abortProbability = 1.0; // every attempt aborts
    cfg.rtm.maxRetries = 2;
    EngineCounters before, after;
    runMeasured(cfg, before, after);

    auto folded = foldedCounters();
    EXPECT_EQ(folded, expectedCounters(before, after));
    EXPECT_GT(folded["htm.fallbacks"], 0u);
    EXPECT_EQ(folded["htm.fallbacks"],
              delta(before.rtm.fallbacks, after.rtm.fallbacks));
    EXPECT_EQ(folded["htm.aborts.injected"],
              3 * folded["htm.fallbacks"]); // 1 try + 2 retries each
    EXPECT_EQ(folded["core.tx.inplace_fallbacks"], folded["htm.fallbacks"]);
    EXPECT_GT(folded["core.tx.rollbacks"], 0u);
    EXPECT_GT(folded["pager.latch.conflicts"], 0u);
    EXPECT_EQ(folded.count("htm.commits"), 0u);
    EXPECT_EQ(folded.count("core.pcas.commits"), 0u);
}

TEST_F(FoldCountersTest, PcasCommits)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::Fast;
    cfg.inPlaceCommitVia = InPlaceCommitVia::Pcas;
    EngineCounters before, after;
    runMeasured(cfg, before, after);
    ASSERT_TRUE(after.commitViaPcas);

    auto folded = foldedCounters();
    EXPECT_EQ(folded, expectedCounters(before, after));
    EXPECT_GT(folded["core.pcas.commits"], 0u);
    EXPECT_EQ(folded.count("htm.commits"), 0u);
    EXPECT_EQ(folded.count("htm.fallbacks"), 0u);
}

// The runners fold over their own measured phase: runInsertBench's
// counters describe exactly the transactions its BenchResult reports.
TEST_F(FoldCountersTest, InsertBenchFoldsItsMeasuredPhase)
{
    BenchConfig config;
    config.kind = EngineKind::Fast;
    config.commitVia = InPlaceCommitVia::Rtm;
    config.rtm.abortProbability = 1.0;
    config.numTxns = 200;
    BenchResult result = runInsertBench(config);

    auto folded = foldedCounters();
    EXPECT_EQ(folded["core.tx.commits"], result.engineStats.txCommitted);
    EXPECT_EQ(folded["core.tx.commits"], config.numTxns);
    EXPECT_GT(folded["htm.fallbacks"], 0u);
    EXPECT_EQ(folded["htm.fallbacks"], result.rtmStats.fallbacks);
    EXPECT_EQ(folded["htm.aborts.injected"], result.rtmStats.abortsInjected);
}

} // namespace
} // namespace fasp::benchutil
