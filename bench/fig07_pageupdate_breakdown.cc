/**
 * @file
 * Figure 7: breakdown of Page Update time for B-tree insertion as the
 * PM read/write latency is varied.
 *
 * Paper series per engine: "volatile buffer caching" (NVWAL only),
 * "update slot header", "clflush(record)", "in-place record insert"
 * (FASH/FAST only), and "defragment(page)". Expected shape: NVWAL's
 * page update is a pure DRAM copy (latency-insensitive); FASH/FAST pay
 * clflush(record), which grows with write latency; defragmentation is
 * negligible (<0.02% of insertion time, paper §4.3).
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
    const std::uint64_t latencies[] = {300, 600, 900, 1200};

    Table table({"latency(ns)", "engine", "volatile-copy(us)",
                 "upd-slot-hdr(us)", "clflush-rec(us)",
                 "in-place-ins(us)", "defrag(us)", "total(us)"});

    double defrag_share_max = 0;
    for (std::uint64_t lat : latencies) {
        for (core::EngineKind kind : paperEngines()) {
            BenchConfig config;
            config.kind = kind;
            config.latency = pm::LatencyModel::of(lat, lat);
            config.opsPerClient = args.numTxns;
            BenchResult result = runBench(config);

            double vol = result.perTxnNs(Component::VolatileCopy);
            double hdr = result.perTxnNs(Component::UpdateSlotHeader);
            double flush = result.perTxnNs(Component::FlushRecord);
            double inplace = result.perTxnNs(Component::InPlaceInsert);
            double defrag = result.perTxnNs(Component::Defrag);
            double total = vol + hdr + flush + inplace + defrag;
            table.addRow({latencyLabel(config.latency),
                          core::engineKindName(kind),
                          Table::fmt(vol / 1000.0, 3),
                          Table::fmt(hdr / 1000.0, 3),
                          Table::fmt(flush / 1000.0, 3),
                          Table::fmt(inplace / 1000.0, 3),
                          Table::fmt(defrag / 1000.0, 4),
                          Table::fmt(total / 1000.0, 3)});
            Groups groups = groupComponents(result, kind);
            if (groups.totalNs() > 0) {
                defrag_share_max = std::max(
                    defrag_share_max, defrag / groups.totalNs());
            }
        }
    }
    std::string title = "Figure 7: Page Update breakdown vs PM latency";
    table.print(title);
    std::printf("\nmax defragmentation share of insertion time: "
                "%.4f%% (paper: <0.02%%)\n",
                defrag_share_max * 100.0);

    JsonReport report(args.jsonPath, "fig07_pageupdate_breakdown");
    report.add(title, table);
    report.write();
    args.writeMetrics("fig07_pageupdate_breakdown");
    return 0;
}
