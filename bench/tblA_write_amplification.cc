/**
 * @file
 * Table A (ablation): persistent write amplification per committed
 * single-record insert, across all five engines — quantifying the
 * paper's motivation (Section 1-2): journaling writes every page
 * twice, page-granularity WAL once, NVWAL only the dirty bytes (plus
 * heap/frame overhead), FASH only slot headers, FAST ~one cache line.
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
    const std::size_t record = 64;

    Table table({"engine", "PM-bytes/insert", "amplification",
                 "clflush/insert", "fences/insert"});
    for (core::EngineKind kind : allEngines()) {
        BenchConfig config;
        config.kind = kind;
        config.latency = pm::LatencyModel::of(300, 300);
        config.opsPerClient = args.numTxns;
        config.recordSize = record;
        BenchResult result = runBench(config);

        double bytes = static_cast<double>(result.pmStats.storeBytes) /
                       static_cast<double>(result.ops);
        double fences = static_cast<double>(result.pmStats.fences) /
                        static_cast<double>(result.ops);
        table.addRow({core::engineKindName(kind),
                      Table::fmt(bytes, 0),
                      Table::fmt(bytes / record, 1) + "x",
                      Table::fmt(result.flushesPerTxn(), 1),
                      Table::fmt(fences, 1)});
    }
    std::string title = "Table A: write amplification per 64B insert "
                        "(PM bytes stored / logical bytes)";
    table.print(title);
    std::printf("\nexpected ordering: JOURNAL >> WAL >> NVWAL > FASH "
                "> FAST (paper: journaling doubles I/O; FAST needs "
                "one store+flush for the commit mark)\n");

    JsonReport report(args.jsonPath, "tblA_write_amplification");
    report.add(title, table);
    report.write();
    args.writeMetrics("tblA_write_amplification");
    return 0;
}
