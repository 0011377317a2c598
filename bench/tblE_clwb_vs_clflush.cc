/**
 * @file
 * Table E (ablation): CLWB vs CLFLUSH. The paper's Figure 3 issues
 * CLWBs — the write-back instruction that persists a line *without*
 * evicting it — while evaluation-era hardware only offered CLFLUSH.
 * This bench quantifies the difference for the PM-resident engines:
 * with CLFLUSH, every committed record/header line is evicted and the
 * next traversal re-pays PM read latency; with CLWB the lines stay
 * cached.
 */

#include <cstdio>

#include "bench_util/runner.h"
#include "bench_util/table.h"

using namespace fasp;
using namespace fasp::benchutil;
using pm::Component;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);

    Table table({"engine", "flush-instr", "search(us)", "total(us)",
                 "read-misses/txn"});
    for (core::EngineKind kind : paperEngines()) {
        for (bool clwb : {false, true}) {
            BenchConfig config;
            config.kind = kind;
            config.latency = pm::LatencyModel::of(600, 600);
            config.opsPerClient = args.numTxns;
            config.useClwb = clwb;
            BenchResult result = runBench(config);
            Groups groups = groupComponents(result, kind);
            double misses =
                static_cast<double>(result.pmStats.readMisses) /
                static_cast<double>(result.ops);
            table.addRow({core::engineKindName(kind),
                          clwb ? "CLWB" : "CLFLUSH",
                          Table::fmt(groups.searchNs / 1000.0),
                          Table::fmt(groups.totalNs() / 1000.0),
                          Table::fmt(misses, 1)});
        }
    }
    std::string title =
        "Table E: CLWB vs CLFLUSH at 600/600ns (the paper's "
        "Figure 3 assumes CLWB)";
    table.print(title);
    std::printf("\nexpected: CLWB helps the PM-resident engines most "
                "(their working set lives in PM, so eviction-free "
                "write-back keeps the B-tree path cached); NVWAL "
                "reads mostly from DRAM and gains little\n");

    JsonReport report(args.jsonPath, "tblE_clwb_vs_clflush");
    report.add(title, table);
    report.write();
    args.writeMetrics("tblE_clwb_vs_clflush");
    return 0;
}
