/**
 * @file
 * YCSB core workloads A-F over all five engines (multi-client).
 *
 * Each (mix, engine) point preloads a keyspace, then drives the mix's
 * read/update/insert/scan/RMW ratio from concurrent clients through
 * the full transaction path, reporting modelled throughput and per-op
 * latency percentiles (CPU + modelled PM time, as in fig12's
 * multi-client mode). Two extra sections:
 *
 *   - skewed-hot-page: mix A with KeyOrder::Sequential maps the hot
 *     Zipfian ranks onto adjacent low keys, concentrating traffic on a
 *     few leaves; the conflict-retry column shows what that contention
 *     costs the latch-based engines vs the hashed-keyspace default.
 *   - validation: a smoke-sized pass per engine with the persistency
 *     checker attached (expected 0 violations; any violation makes the
 *     bench exit 1).
 *
 * Expected shape: FAST leads on the write-heavy mixes (A, F) where the
 * in-place commit saves flushes; the read-mostly mixes (B, C, D)
 * compress the gap since reads bypass commit entirely; E is dominated
 * by scan traversal and favors nothing in particular.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "core/engine.h"

using namespace fasp;
using namespace fasp::benchutil;

namespace {

const char kMixes[] = {'A', 'B', 'C', 'D', 'E', 'F'};

BenchConfig
basePoint(const BenchArgs &args, char mix, core::EngineKind kind)
{
    BenchConfig config;
    config.kind = kind;
    config.ycsbMix = mix;
    config.clients = args.clients ? args.clients : (args.smoke ? 2 : 4);
    config.opsPerClient =
        std::max<std::size_t>(args.numTxns / config.clients, 50);
    config.preloadPerClient = args.smoke ? 200 : 1000;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);

    Table perf({"mix", "engine", "clients", "ops", "ops/sec",
                "mean(us)", "p50(us)", "p99(us)", "conflict-retries",
                "scanned"});
    for (char mix : kMixes) {
        for (core::EngineKind kind : allEngines()) {
            BenchConfig config = basePoint(args, mix, kind);
            BenchResult result = runBench(config);
            perf.addRow(
                {std::string(1, mix), core::engineKindName(kind),
                 Table::fmt(static_cast<std::uint64_t>(config.clients)),
                 Table::fmt(result.ops),
                 Table::fmt(result.opsPerSecond(), 0),
                 Table::fmt(result.meanOpUs, 1),
                 Table::fmt(result.p50OpUs, 1),
                 Table::fmt(result.p99OpUs, 1),
                 Table::fmt(result.retries),
                 Table::fmt(result.scannedRecords)});
        }
    }

    // Skewed-hot-page mode: same mix-A traffic, but the Zipfian-hot
    // ranks share adjacent keys (a few hot leaves) instead of being
    // hashed across the keyspace.
    // No ops/sec here on purpose: hot-page throughput is dominated by
    // backoff sleeps and scheduler noise (genuinely nondeterministic),
    // so it would flap the perf gate. The story this table tells is
    // the conflict-retry contrast; latency percentiles give scale.
    Table hot({"engine", "key-order", "ops", "mean(us)", "p99(us)",
               "conflict-retries"});
    for (core::EngineKind kind :
         {core::EngineKind::Fast, core::EngineKind::Fash}) {
        for (workload::KeyOrder order : {workload::KeyOrder::Hashed,
                                         workload::KeyOrder::Sequential}) {
            BenchConfig config = basePoint(args, 'A', kind);
            config.order = order;
            BenchResult result = runBench(config);
            hot.addRow(
                {core::engineKindName(kind),
                 order == workload::KeyOrder::Hashed ? "hashed"
                                                     : "sequential",
                 Table::fmt(result.ops),
                 Table::fmt(result.meanOpUs, 1),
                 Table::fmt(result.p99OpUs, 1),
                 Table::fmt(result.retries)});
        }
    }

    // Validation pass: persistency checker attached, smoke-sized.
    Table valid({"engine", "mix", "ops", "checker-violations"});
    std::uint64_t violations = 0;
    for (core::EngineKind kind : allEngines()) {
        BenchConfig config = basePoint(args, 'A', kind);
        config.opsPerClient = std::min<std::size_t>(
            config.opsPerClient, 150);
        config.preloadPerClient = 100;
        config.attachChecker = true;
        BenchResult result = runBench(config);
        violations += result.checkerViolations;
        valid.addRow({core::engineKindName(kind), "A",
                      Table::fmt(result.ops),
                      Table::fmt(result.checkerViolations)});
    }

    std::string perf_title = "YCSB A-F: multi-client throughput/latency";
    std::string hot_title = "YCSB A (skewed-hot-page): hashed vs "
                            "sequential key order";
    std::string valid_title = "YCSB: persistency-checker validation";
    perf.print(perf_title);
    hot.print(hot_title);
    valid.print(valid_title);

    JsonReport report(args.jsonPath, "ycsb");
    report.add(perf_title, perf);
    report.add(hot_title, hot);
    report.add(valid_title, valid);
    report.write();
    args.writeMetrics("ycsb");
    if (violations != 0) {
        std::fprintf(stderr, "ycsb: %llu persistency-checker violations\n",
                     static_cast<unsigned long long>(violations));
        return 1;
    }
    return 0;
}
