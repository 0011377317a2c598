/**
 * @file
 * The export's counters: each one is folded from the one stats field
 * that counts its event, over the measured phase only, into its
 * engine's PhaseLedger entry (DESIGN.md §11).
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

using core::EngineKind;

/** @p engine's counters in the global PhaseLedger (none if it has no
 *  entry). */
std::map<std::string, std::uint64_t>
exportedCounters(const char *engine)
{
    for (const obs::PhaseLedger::Entry &e :
         obs::PhaseLedger::global().entries()) {
        if (e.engine == engine)
            return e.counters;
    }
    return {};
}

/** The table: each exported counter against its stats field, non-zero
 *  entries only. */
std::map<std::string, std::uint64_t>
expectedCounters(const EngineCounters &c)
{
    const core::EngineStats &e = c.engine;
    const pm::PcasStats &p = c.pcas;
    const LatchStats &l = c.latches;

    std::map<std::string, std::uint64_t> all = {
        {"core.tx.commits", e.txCommitted},
        {"core.tx.rollbacks", e.txRolledBack},
        {"core.pcas.commits", e.inPlaceCommits},
        {"core.pcas.fallbacks", e.pcasFallbacks},
        {"core.pcas.conflicts", p.casConflicts},
        {"core.pcas.exhausted", p.casExhausted},
        {"pager.page_allocs", e.pageAllocs},
        {"pager.page_frees", e.pageFrees},
        {"pager.latch.conflicts", l.conflicts},
        {"pager.latch.shared_acquires", l.sharedAcquires},
        {"pager.latch.exclusive_acquires", l.exclusiveAcquires},
        {"pager.latch.upgrades", l.upgrades},
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
        obs::PhaseLedger::global().reset();
        obs::SpanProfiler::global().reset();
        obs::setEnabled(true);
    }
    void TearDown() override
    {
        obs::setEnabled(false);
        obs::PhaseLedger::global().reset();
    }

    /**
     * A FAST point: create a tree and commit setup inserts, then
     * measure 300 single-key inserts, deletes that empty the leftmost
     * leaves, and one transaction that loses a latch conflict to an
     * open writer and rolls back. Returns the phase's counters.
     */
    EngineCounters runMeasured(const pm::PcasConfig &pcas)
    {
        BenchConfig config;
        config.kind = EngineKind::Fast;
        config.pcas = pcas;
        BenchPoint point(config, 32u << 20);
        core::Engine &engine = point.engine();
        btree::BTree tree = *engine.createTree(1);
        std::vector<std::uint8_t> value(24, 0x5a);
        // Setup work the fold must leave out: it moves every stats
        // block the export reads, and startMeasuring() zeroes them all.
        for (std::uint64_t key = 1000000; key < 1000200; ++key)
            EXPECT_TRUE(engine.insert(tree, key, value).isOk());
        const EngineCounters setup = EngineCounters::of(engine);
        EXPECT_GT(setup.engine.pageAllocs, 1u);
        EXPECT_GT(setup.latches.exclusiveAcquires, 0u);
        if (pcas.failProbability == 1.0) {
            EXPECT_GT(setup.pcas.casExhausted, 0u);
        }

        point.startMeasuring();
        for (const obs::NamedCount &c : EngineCounters::of(engine).named())
            EXPECT_EQ(c.value, 0u) << c.name;
        for (std::uint64_t key = 1; key <= 300; ++key)
            EXPECT_TRUE(engine.insert(tree, key * 7919, value).isOk());
        for (std::uint64_t key = 1; key <= 200; ++key)
            EXPECT_TRUE(engine.erase(tree, key * 7919).isOk());

        auto writer = engine.begin();
        EXPECT_TRUE(tree.insert(writer->pageIO(), 1, value).isOk());
        std::thread loser([&engine, &tree, &value] {
            auto tx = engine.begin();
            EXPECT_THROW(tree.insert(tx->pageIO(), 2, value),
                         LatchConflict);
            tx->rollback();
        });
        loser.join();
        EXPECT_TRUE(writer->commit().isOk());

        BenchResult result;
        point.stopMeasuring(result);
        return result.counters;
    }
};

TEST_F(FoldCountersTest, PcasForcedToFallBack)
{
    pm::PcasConfig pcas;
    pcas.failProbability = 1.0; // every attempt fails
    pcas.maxRetries = 2;
    const EngineCounters phase = runMeasured(pcas);

    auto exported = exportedCounters("FAST");
    EXPECT_EQ(exported, expectedCounters(phase));
    EXPECT_GT(exported["core.pcas.fallbacks"], 0u);
    EXPECT_EQ(exported["core.pcas.exhausted"],
              exported["core.pcas.fallbacks"]);
    EXPECT_GT(exported["core.tx.rollbacks"], 0u);
    EXPECT_GT(exported["pager.latch.conflicts"], 0u);
    EXPECT_GT(exported["pager.page_allocs"], 0u);
    EXPECT_GT(exported["pager.page_frees"], 0u);
    EXPECT_EQ(exported.count("core.pcas.commits"), 0u);
}

TEST_F(FoldCountersTest, PcasCommits)
{
    const EngineCounters phase = runMeasured(pm::PcasConfig{});

    auto exported = exportedCounters("FAST");
    EXPECT_EQ(exported, expectedCounters(phase));
    EXPECT_GT(exported["core.pcas.commits"], 0u);
    EXPECT_GT(exported["pager.page_frees"], 0u);
    EXPECT_EQ(exported.count("core.pcas.fallbacks"), 0u);
}

// runBench folds over its own measured phase: its counters describe
// exactly the transactions its BenchResult reports, and verification
// afterwards adds nothing (its reads commit, so any that reached the
// export would show as extra commits or committed spans).
TEST_F(FoldCountersTest, InsertBenchFoldsItsMeasuredPhase)
{
    BenchConfig config;
    config.kind = EngineKind::Fast;
    config.pcas.failProbability = 1.0;
    config.opsPerClient = 200;
    BenchResult result = runBench(config);

    auto exported = exportedCounters("FAST");
    EXPECT_EQ(exported, expectedCounters(result.counters));
    EXPECT_EQ(exported.count("core.tx.rollbacks"), 0u);
    EXPECT_EQ(exported["core.tx.commits"], config.opsPerClient);
    // Spans are not windowed: the tree's creation plus the inserts.
    auto spans = obs::SpanProfiler::global().engineSummaries();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].commits, config.opsPerClient + 1);
    EXPECT_EQ(spans[0].aborts, 0u);
    EXPECT_GT(exported["core.pcas.fallbacks"], 0u);
    EXPECT_EQ(exported["core.pcas.exhausted"],
              result.counters.pcas.casExhausted);
}

// A YCSB point creates its tree and preloads it before the measured
// phase; none of that work reaches the export. The measured reads
// allocate nothing, write-latch nothing and commit read-only.
TEST_F(FoldCountersTest, PreloadStaysOutOfTheExport)
{
    BenchConfig config;
    config.kind = EngineKind::Fast;
    config.ycsbMix = 'C'; // reads only
    config.preloadPerClient = 2000;
    config.opsPerClient = 300;
    BenchResult result = runBench(config);

    auto exported = exportedCounters("FAST");
    EXPECT_EQ(exported, expectedCounters(result.counters));
    EXPECT_EQ(exported["core.tx.commits"], config.opsPerClient);
    EXPECT_EQ(exported.count("pager.page_allocs"), 0u);
    EXPECT_EQ(exported.count("core.pcas.commits"), 0u);
    EXPECT_EQ(exported.count("core.tx.rollbacks"), 0u);
    EXPECT_EQ(exported.count("pager.latch.exclusive_acquires"), 0u);
    EXPECT_EQ(exported.count("pager.latch.upgrades"), 0u);
    EXPECT_GT(exported["pager.latch.shared_acquires"], 0u);
}

} // namespace
} // namespace fasp::benchutil
