/**
 * @file
 * runBench / BenchPoint::run: the one bench driver. Which keys a
 * client commits, what a LatchConflict retries, what the measured
 * window covers, and the makespan rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_util/runner.h"

namespace fasp::benchutil {
namespace {

using core::EngineKind;

/** The first @p n keys of KeyStream(UniformRandom, @p seed). */
std::vector<std::uint64_t>
streamKeys(std::uint64_t seed, std::size_t n)
{
    workload::KeyStream keys(workload::KeyPattern::UniformRandom, seed);
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(keys.next());
    return out;
}

/** Every key @p tree holds, in key order. */
std::vector<std::uint64_t>
treeKeys(core::Engine &engine, btree::BTree &tree)
{
    std::vector<std::uint64_t> out;
    Status status = engine.scan(
        tree, 0, ~std::uint64_t{0},
        [&out](std::uint64_t key, std::span<const std::uint8_t>) {
            out.push_back(key);
            return true;
        });
    EXPECT_TRUE(status.isOk()) << status.toString();
    return out;
}

// Client 0 draws the figure sweeps' key stream, so every single-client
// table keeps its numbers; the window sees every flush and fence the
// device counted in the measured phase.
TEST(RunBenchTest, SingleClientCommitsTheFigureKeyStream)
{
    BenchConfig config;
    config.kind = EngineKind::Fast;
    config.opsPerClient = 300;
    BenchPoint point(config, 64u << 20);
    auto tree = point.engine().createTree(2);
    ASSERT_TRUE(tree.isOk());
    BenchResult result = point.run(*tree);

    std::vector<std::uint64_t> expected = streamKeys(42, 300);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(treeKeys(point.engine(), *tree), expected);
    EXPECT_EQ(result.ops, 300u);
    EXPECT_EQ(result.retries, 0u);
    EXPECT_EQ(result.counters.engine.txCommitted, 300u);

    std::uint64_t flushes = 0, fences = 0;
    for (std::size_t c = 0; c < pm::kNumComponents; ++c) {
        flushes += result.window.flushCount(static_cast<pm::Component>(c));
        fences += result.window.fenceCount(static_cast<pm::Component>(c));
    }
    EXPECT_GT(flushes, 0u);
    EXPECT_EQ(flushes, result.pmStats.clflushes);
    EXPECT_EQ(fences, result.pmStats.fences);
}

// After a LatchConflict a client retries the same op, so contended
// clients still commit exactly the first N keys of their own streams.
// Whether clients overlap is up to the scheduler, so the test holds
// the one leaf of the fresh tree until a client has conflicted on it.
TEST(RunBenchTest, ConflictRetriesTheSameKeys)
{
    BenchConfig config;
    config.kind = EngineKind::Fast;
    config.clients = 4;
    config.opsPerClient = 200;
    BenchPoint point(config, 64u << 20);
    core::Engine &engine = point.engine();
    auto tree = engine.createTree(2);
    ASSERT_TRUE(tree.isOk());

    auto blocker = engine.begin();
    std::vector<std::uint8_t> value(8, 0);
    ASSERT_TRUE(tree->insert(blocker->pageIO(), 1, value).isOk());
    BenchResult result;
    std::thread runner([&] { result = point.run(*tree); });
    while (engine.stats().txRolledBack.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    blocker->rollback();
    runner.join();

    EXPECT_GT(result.retries, 0u);
    EXPECT_EQ(result.ops, 800u);
    std::vector<std::uint64_t> expected;
    for (std::uint64_t c = 0; c < 4; ++c) {
        std::vector<std::uint64_t> keys = streamKeys(42 + 1000 * c, 200);
        expected.insert(expected.end(), keys.begin(), keys.end());
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(treeKeys(engine, *tree), expected);
}

// YCSB A with the checker attached; runBench's own verification is
// fatal, so returning means every preloaded and inserted key is
// readable. Each client's active time is the sum of its op times, so
// the makespan rule shows against the op-time total: the sum over
// clients for the buffered engines, the slowest client for FAST.
TEST(RunBenchTest, YcsbAIsCheckerCleanAndKeepsTheMakespanRule)
{
    for (EngineKind kind : {EngineKind::Fast, EngineKind::Nvwal}) {
        BenchConfig config;
        config.kind = kind;
        config.clients = 4;
        config.opsPerClient = 200;
        config.ycsbMix = 'A';
        config.preloadPerClient = 100;
        config.attachChecker = true;
        BenchResult result = runBench(config);

        SCOPED_TRACE(core::engineKindName(kind));
        EXPECT_EQ(result.checkerViolations, 0u);
        EXPECT_EQ(result.ops, 800u);
        std::uint64_t counted = 0;
        for (std::uint64_t n : result.opCounts)
            counted += n;
        EXPECT_EQ(counted, 800u);

        double op_total_s = result.meanOpUs * 1e-6 * 800;
        if (kind == EngineKind::Nvwal)
            EXPECT_NEAR(result.modeledSeconds, op_total_s,
                        1e-9 * 800);
        else
            EXPECT_LT(result.modeledSeconds, op_total_s);
    }
}

} // namespace
} // namespace fasp::benchutil
