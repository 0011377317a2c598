/**
 * @file
 * Figure 8: breakdown of Commit time for B-tree insertion as the PM
 * *write* latency is varied (read latency fixed at 300 ns — the paper
 * notes commit time is independent of read latency).
 *
 * Paper series: NVWAL = computation + heap management + log flush +
 * misc (WAL-index construction); FASH/FAST = log flush + checkpointing
 * (+ atomic 64B write for FAST). Expected shape: FAST up to 6x lower
 * commit overhead than NVWAL; FAST's checkpointing ~49% below FASH's;
 * the headline "reduces database logging overhead to 1/6".
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
    const std::uint64_t write_latencies[] = {300, 600, 900, 1200};

    Table table({"wlat(ns)", "engine", "nvwal-comp(us)",
                 "heap-mgmt(us)", "log-flush(us)", "checkpoint(us)",
                 "atomic64B(us)", "misc(us)", "commit(us)"});

    double nvwal_commit = 0, fast_commit = 0;
    double fash_ckpt = 0, fast_ckpt = 0;
    double fash_logflush_share = 0, fast_logflush_share = 0;

    for (std::uint64_t wlat : write_latencies) {
        for (core::EngineKind kind : paperEngines()) {
            BenchConfig config;
            config.kind = kind;
            config.latency = pm::LatencyModel::of(300, wlat);
            config.opsPerClient = args.numTxns;
            BenchResult result = runBench(config);

            double comp = result.perTxnNs(Component::NvwalCompute);
            double heap = result.perTxnNs(Component::HeapMgmt);
            double flush = result.perTxnNs(Component::LogFlush);
            double ckpt =
                kind == core::EngineKind::Nvwal
                    ? 0.0
                    : result.perTxnNs(Component::Checkpoint);
            double atomic =
                result.perTxnNs(Component::Atomic64BWrite);
            double misc = result.perTxnNs(Component::CommitMisc) +
                          result.perTxnNs(Component::WalIndex);
            double total = commitNs(result, kind);
            table.addRow({std::to_string(wlat),
                          core::engineKindName(kind),
                          Table::fmt(comp / 1000.0, 3),
                          Table::fmt(heap / 1000.0, 3),
                          Table::fmt(flush / 1000.0, 3),
                          Table::fmt(ckpt / 1000.0, 3),
                          Table::fmt(atomic / 1000.0, 3),
                          Table::fmt(misc / 1000.0, 3),
                          Table::fmt(total / 1000.0, 3)});

            if (wlat == 1200) {
                if (kind == core::EngineKind::Nvwal)
                    nvwal_commit = total;
                if (kind == core::EngineKind::Fast) {
                    fast_commit = total;
                    fast_ckpt = ckpt;
                    fast_logflush_share = flush / total;
                }
                if (kind == core::EngineKind::Fash) {
                    fash_ckpt = ckpt;
                    fash_logflush_share = flush / total;
                }
            }
        }
    }
    std::string title =
        "Figure 8: Commit-time breakdown vs PM write latency "
        "(read fixed at 300ns)";
    table.print(title);
    std::printf(
        "\nheadline checks at write latency 1200ns:\n"
        "  NVWAL/FAST commit ratio: %.2fx (paper: up to 6x)\n"
        "  FAST vs FASH checkpointing: %.2fus vs %.2fus = %.0f%% "
        "lower (paper: 49%% lower, 0.72us vs 1.42us)\n"
        "  log-flush share of commit: FASH %.1f%%, FAST %.1f%% "
        "(paper: ~27.8%% vs ~14.2%%)\n",
        nvwal_commit / fast_commit, fast_ckpt / 1000.0,
        fash_ckpt / 1000.0,
        100.0 * (1.0 - fast_ckpt / (fash_ckpt > 0 ? fash_ckpt : 1)),
        100.0 * fash_logflush_share, 100.0 * fast_logflush_share);

    JsonReport report(args.jsonPath, "fig08_commit_breakdown");
    report.add(title, table);
    report.write();
    args.writeMetrics("fig08_commit_breakdown");
    return 0;
}
