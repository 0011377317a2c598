/**
 * @file
 * Latency explorer: how does each engine's insert cost scale as PM
 * drifts from DRAM-like (120ns) to conservative (1.2us) latency? This
 * is the question the paper's evaluation revolves around; the example
 * sweeps it with a user-chosen record size and prints the crossover
 * analysis (NVWAL's copy-to-DRAM-first design loses more ground the
 * slower — or larger — the persistent writes get).
 *
 * Usage: latency_explorer [record_bytes] [num_txns]
 */

#include <cstdio>
#include <cstdlib>

#include "bench_util/runner.h"
#include "bench_util/table.h"

using namespace fasp;
using namespace fasp::benchutil;

int
main(int argc, char **argv)
{
    std::size_t record = argc > 1 ? std::atoll(argv[1]) : 256;
    std::size_t txns = argc > 2 ? std::atoll(argv[2]) : 5000;

    std::printf("insert cost vs PM latency, %zuB records, %zu txns "
                "per point\n",
                record, txns);
    Table table({"latency(ns)", "NVWAL(us)", "FASH(us)", "FAST(us)",
                 "FAST speedup"});

    for (std::uint64_t lat : {120, 240, 480, 960, 1920}) {
        double totals[3] = {0, 0, 0};
        int idx = 0;
        for (core::EngineKind kind : paperEngines()) {
            BenchConfig config;
            config.kind = kind;
            config.latency = pm::LatencyModel::of(lat, lat);
            config.opsPerClient = txns;
            config.recordSize = record;
            BenchResult result = runBench(config);
            totals[idx++] = groupComponents(result, kind).totalNs();
        }
        table.addRow({latencyLabel(pm::LatencyModel::of(lat, lat)),
                      Table::fmt(totals[0] / 1000.0),
                      Table::fmt(totals[1] / 1000.0),
                      Table::fmt(totals[2] / 1000.0),
                      Table::fmt(totals[0] / totals[2], 2) + "x"});
    }
    table.print("engine scaling with PM latency");
    std::printf("\nthe paper's claim to check: FAST stays fastest at "
                "every latency, and the margin holds even at very "
                "conservative (1.2us+) PM latencies.\n");
    return 0;
}
