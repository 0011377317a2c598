/**
 * @file
 * Mobile key-value workload: the scenario the paper's introduction
 * motivates. Android applications are known to issue mostly
 * single-record INSERT transactions against SQLite "as if it is a flat
 * file interface" (paper §3.2). This example runs that exact pattern
 * against all five engines on identical emulated PM and prints the
 * per-transaction commit cost and persistent write amplification —
 * reproducing the paper's headline comparison from the public API.
 *
 * Usage: mobile_kv [num_txns]
 */

#include <cstdio>
#include <cstdlib>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "btree/btree.h"
#include "common/rng.h"
#include "core/engine.h"
#include "pm/device.h"

using namespace fasp;

int
main(int argc, char **argv)
{
    std::size_t num_txns = argc > 1 ? std::atoll(argv[1]) : 10000;
    std::printf("mobile single-insert workload: %zu transactions of "
                "one 100-byte record each, PM at 500/500ns\n",
                num_txns);

    benchutil::Table table({"engine", "txn total(us)", "commit(us)",
                            "clflush/txn", "PM bytes/txn"});
    for (core::EngineKind kind : benchutil::allEngines()) {
        benchutil::BenchConfig config;
        config.kind = kind;
        config.latency = pm::LatencyModel::of(500, 500);
        config.opsPerClient = num_txns;
        config.recordSize = 100;
        benchutil::BenchResult result = benchutil::runBench(config);
        benchutil::Groups groups =
            benchutil::groupComponents(result, kind);
        table.addRow(
            {core::engineKindName(kind),
             benchutil::Table::fmt(groups.totalNs() / 1000.0),
             benchutil::Table::fmt(groups.commitNs / 1000.0),
             benchutil::Table::fmt(result.flushesPerTxn(), 1),
             benchutil::Table::fmt(
                 static_cast<double>(result.pmStats.storeBytes) /
                     static_cast<double>(result.ops),
                 0)});
    }
    table.print("single-insert transactions across engines");
    std::printf("\nreading the table: the journal baseline persists "
                "every touched page twice; page-granularity WAL once; "
                "NVWAL only the dirty bytes (but through a heap + "
                "index); FASH only slot headers; FAST one header line "
                "via its one-word PCAS in-place commit.\n");
    return 0;
}
