/**
 * @file
 * Figure 6: breakdown of time spent for B-tree insertion in SQLite as
 * the read/write latency of PM is varied.
 *
 * Paper series: NVWAL vs FASH vs FAST, stacked Search / Page Update /
 * Commit, at PM latencies 120/120 ... 1200/1200 ns. Expected shape:
 * FAST and FASH beat NVWAL at every latency (x1.5-2 overall), NVWAL's
 * commit dominates its time, and all schemes grow sub-linearly with
 * latency thanks to CPU-cache effects.
 */

#include <cstdio>

#include "bench_util/runner.h"
#include "bench_util/table.h"

using namespace fasp;
using namespace fasp::benchutil;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    const std::uint64_t latencies[] = {120, 300, 600, 900, 1200};

    Table table({"latency(ns)", "engine", "search(us)",
                 "page-update(us)", "commit(us)", "total(us)"});
    double nvwal_total_last = 0;
    double fast_total_last = 0;

    for (std::uint64_t lat : latencies) {
        for (core::EngineKind kind : paperEngines()) {
            BenchConfig config;
            config.kind = kind;
            config.latency = pm::LatencyModel::of(lat, lat);
            config.opsPerClient = args.numTxns;
            BenchResult result = runBench(config);
            Groups groups = groupComponents(result, kind);
            table.addRow({latencyLabel(config.latency),
                          core::engineKindName(kind),
                          Table::fmt(groups.searchNs / 1000.0),
                          Table::fmt(groups.pageUpdateNs / 1000.0),
                          Table::fmt(groups.commitNs / 1000.0),
                          Table::fmt(groups.totalNs() / 1000.0)});
            if (kind == core::EngineKind::Nvwal)
                nvwal_total_last = groups.totalNs();
            if (kind == core::EngineKind::Fast)
                fast_total_last = groups.totalNs();
        }
    }
    std::string title =
        "Figure 6: insertion-time breakdown vs PM latency (avg over " +
        std::to_string(args.numTxns) + " single-record txns)";
    table.print(title);
    std::printf("\nFAST speedup over NVWAL at 1200/1200: %.2fx "
                "(paper: 1.5x-2x across latencies)\n",
                nvwal_total_last / fast_total_last);

    JsonReport report(args.jsonPath, "fig06_insert_breakdown");
    report.add(title, table);
    report.write();
    args.writeMetrics("fig06_insert_breakdown");
    return 0;
}
