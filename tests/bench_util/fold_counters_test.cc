/**
 * @file
 * foldCounters: every core.* and pager.latch.* counter an export
 * carries is folded from the one stats struct that counts its
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
#include "obs/span.h"

namespace fasp::benchutil {
namespace {

using core::EngineConfig;
using core::EngineKind;

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
    const LatchStats &l0 = before.latches, &l = after.latches;

    std::map<std::string, std::uint64_t> all = {
        {"core.tx.commits", delta(e0.txCommitted, e.txCommitted)},
        {"core.tx.rollbacks", delta(e0.txRolledBack, e.txRolledBack)},
        {"pager.latch.conflicts", l.conflicts - l0.conflicts},
        {"pager.latch.shared_acquires",
         l.sharedAcquires - l0.sharedAcquires},
        {"pager.latch.exclusive_acquires",
         l.exclusiveAcquires - l0.exclusiveAcquires},
        {"pager.latch.upgrades", l.upgrades - l0.upgrades},
        {"core.pcas.commits", delta(e0.inPlaceCommits, e.inPlaceCommits)},
        {"core.pcas.fallbacks", delta(e0.pcasFallbacks, e.pcasFallbacks)},
        {"core.pcas.conflicts", delta(p0.casConflicts, p.casConflicts)},
        {"core.pcas.exhausted", delta(p0.casExhausted, p.casExhausted)},
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

TEST_F(FoldCountersTest, PcasForcedToFallBack)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::Fast;
    cfg.pcas.failProbability = 1.0; // every attempt fails
    cfg.pcas.maxRetries = 2;
    EngineCounters before, after;
    runMeasured(cfg, before, after);

    auto folded = foldedCounters();
    EXPECT_EQ(folded, expectedCounters(before, after));
    EXPECT_GT(folded["core.pcas.fallbacks"], 0u);
    EXPECT_EQ(folded["core.pcas.fallbacks"],
              delta(before.engine.pcasFallbacks,
                    after.engine.pcasFallbacks));
    EXPECT_EQ(folded["core.pcas.exhausted"],
              folded["core.pcas.fallbacks"]);
    EXPECT_GT(folded["core.tx.rollbacks"], 0u);
    EXPECT_GT(folded["pager.latch.conflicts"], 0u);
    EXPECT_EQ(folded.count("core.pcas.commits"), 0u);
}

TEST_F(FoldCountersTest, PcasCommits)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::Fast;
    EngineCounters before, after;
    runMeasured(cfg, before, after);

    auto folded = foldedCounters();
    EXPECT_EQ(folded, expectedCounters(before, after));
    EXPECT_GT(folded["core.pcas.commits"], 0u);
    EXPECT_EQ(folded.count("core.pcas.fallbacks"), 0u);
}

// runBench folds over its own measured phase: its counters describe
// exactly the transactions its BenchResult reports, and verification
// afterwards adds nothing (its reads roll back, so any that reached the
// export would show as rollbacks or aborted spans).
TEST_F(FoldCountersTest, InsertBenchFoldsItsMeasuredPhase)
{
    obs::SpanProfiler::global().reset();
    BenchConfig config;
    config.kind = EngineKind::Fast;
    config.pcas.failProbability = 1.0;
    config.opsPerClient = 200;
    BenchResult result = runBench(config);

    auto folded = foldedCounters();
    EXPECT_EQ(folded.count("core.tx.rollbacks"), 0u);
    for (const obs::EngineSpanSummary &s :
         obs::SpanProfiler::global().engineSummaries())
        EXPECT_EQ(s.aborts, 0u) << s.engine;
    EXPECT_EQ(folded["core.tx.commits"],
              result.counters.engine.txCommitted);
    EXPECT_EQ(folded["core.tx.commits"], config.opsPerClient);
    EXPECT_GT(folded["core.pcas.fallbacks"], 0u);
    EXPECT_EQ(folded["core.pcas.fallbacks"],
              result.counters.engine.pcasFallbacks);
    EXPECT_EQ(folded["core.pcas.exhausted"],
              result.counters.pcas.casExhausted);
}

} // namespace
} // namespace fasp::benchutil
