/**
 * @file
 * Figure 10: transactions that insert multiple records (the enterprise
 * pattern of paper §3.3, where in-place commit alone cannot provide
 * atomicity and slot-header logging takes over).
 *
 * The figure's text is truncated in the available copy of the paper;
 * this bench reconstructs it from the Section 3.3/5 narrative: per-
 * transaction commit cost and flush counts as records-per-transaction
 * grows. Expected shape: FAST converges to FASH (every multi-record
 * txn takes the logging path), both stay well below NVWAL whose frame
 * bytes grow with the record count, and per-record overhead amortizes
 * for all schemes.
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
    const std::size_t batch[] = {1, 2, 4, 8, 16, 32};

    Table table({"recs/txn", "engine", "commit(us)",
                 "commit/rec(us)", "clflush/txn", "in-place-commits"});

    for (std::size_t k : batch) {
        for (core::EngineKind kind : paperEngines()) {
            BenchConfig config;
            config.kind = kind;
            config.latency = pm::LatencyModel::of(300, 300);
            config.opsPerClient =
                std::max<std::size_t>(1, args.numTxns / k);
            config.recordsPerTxn = k;
            BenchResult result = runBench(config);
            double commit = commitNs(result, kind);
            table.addRow(
                {std::to_string(k), core::engineKindName(kind),
                 Table::fmt(commit / 1000.0),
                 Table::fmt(commit / 1000.0 /
                            static_cast<double>(k)),
                 Table::fmt(result.flushesPerTxn(), 1),
                 Table::fmt(result.counters.engine.inPlaceCommits)});
        }
    }
    std::string title =
        "Figure 10: multi-record transactions (300/300ns)";
    table.print(title);
    std::printf("\nexpected: FAST uses in-place commit only at 1 "
                "rec/txn; beyond that FAST == FASH (slot-header "
                "logging), both below NVWAL\n");

    JsonReport report(args.jsonPath, "fig10_multi_insert");
    report.add(title, table);
    report.write();
    args.writeMetrics("fig10_multi_insert");
    return 0;
}
