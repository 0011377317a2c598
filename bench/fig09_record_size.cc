/**
 * @file
 * Figure 9: (a) average insertion time and (b) cache-line flushes per
 * insertion, as the record size grows (PM latency fixed at 300/300).
 *
 * Expected shape: the FAST/FASH advantage over NVWAL *widens* with
 * record size — NVWAL's WAL frames grow with the data while FAST logs
 * a fixed-size slot header; flush counts likewise grow fastest for
 * NVWAL.
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
    const std::size_t sizes[] = {64, 128, 256, 512, 1024, 2048, 4096};

    Table time_table({"record(B)", "engine", "insert-time(us)",
                      "vs-NVWAL"});
    Table flush_table({"record(B)", "engine", "clflush/insert",
                       "PM-bytes-stored/insert"});

    for (std::size_t size : sizes) {
        double nvwal_total = 0;
        for (core::EngineKind kind : paperEngines()) {
            BenchConfig config;
            config.kind = kind;
            config.latency = pm::LatencyModel::of(300, 300);
            // Cap the workload so the largest records stay in budget.
            config.opsPerClient =
                std::min<std::size_t>(args.numTxns,
                                      (96u << 20) / (size + 64));
            config.recordSize = size;
            BenchResult result = runBench(config);
            Groups groups = groupComponents(result, kind);
            double total = groups.totalNs();
            if (kind == core::EngineKind::Nvwal)
                nvwal_total = total;

            time_table.addRow(
                {std::to_string(size), core::engineKindName(kind),
                 Table::fmt(total / 1000.0),
                 Table::fmt(nvwal_total / total, 2) + "x"});
            flush_table.addRow(
                {std::to_string(size), core::engineKindName(kind),
                 Table::fmt(result.flushesPerTxn(), 1),
                 Table::fmt(static_cast<double>(
                                result.pmStats.storeBytes) /
                                static_cast<double>(result.ops),
                            0)});
        }
    }
    std::string time_title =
        "Figure 9(a): insertion time vs record size (300/300ns)";
    std::string flush_title =
        "Figure 9(b): cache-line flushes per insertion vs record size";
    time_table.print(time_title);
    flush_table.print(flush_title);
    std::printf("\nexpected: the FAST:NVWAL gap widens with record "
                "size (NVWAL duplicates data into WAL frames; FAST "
                "logs a fixed-size slot header)\n");

    JsonReport report(args.jsonPath, "fig09_record_size");
    report.add(time_title, time_table);
    report.add(flush_title, flush_table);
    report.write();
    args.writeMetrics("fig09_record_size");
    return 0;
}
