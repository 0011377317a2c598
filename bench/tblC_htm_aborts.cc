/**
 * @file
 * Table C (ablation): FAST under HTM abort pressure (paper §3.2
 * footnote 1: if an RTM transaction fails, the fallback handler
 * retries until it succeeds, or alternatively falls back to
 * slot-header logging after repeated aborts).
 *
 * Five tables:
 *
 *  1. Injected-abort sweep (single client, RTM commit): commit cost
 *     degrading gracefully toward FASH as more commits take the
 *     logging fallback.
 *
 *  2. Abort-class breakdown by client count (RTM commit): with
 *     concurrent clients the emulated RTM also aborts on real
 *     write-set contention (line-lock conflicts at commit), so the
 *     per-class counters (injected / contention) separate modelled
 *     aborts from genuine interference. FAST's header publish never
 *     issues XABORT and touches one cache line by construction, so
 *     the emulation has no explicit or capacity class.
 *
 *  3. Injected-failure sweep for the default PCAS commit (DESIGN.md
 *     §14): the same ablation for the CAS path, whose per-attempt
 *     failure injection models latch-free contention. Exhausting the
 *     retry budget sends the commit to the logging fallback, so cost
 *     degrades toward FASH exactly as the RTM table does.
 *
 *  4. PCAS outcome classes by client count: attempts vs commits vs
 *     injected / conflict / exhausted, plus helping-flush counts and
 *     engine-level fallbacks. With the page latch held across commits
 *     real conflicts stay 0 — the column exists to catch that
 *     invariant drifting.
 *
 *  5. Span-attributed causes by client count (DESIGN.md §17): the
 *     same points read back as before/after deltas of the span
 *     profiler's FAST aggregates, lining aborts up with the latch
 *     waits/conflicts and PCAS retries that produced them. Rows read
 *     0 unless --metrics/--trace enabled the obs layer.
 */

#include <array>
#include <cstdio>
#include <cstring>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "obs/metrics.h"
#include "obs/span.h"

using namespace fasp;
using namespace fasp::benchutil;

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    const double abort_probs[] = {0.0, 0.1, 0.3, 0.6, 0.9};

    Table table({"abort-prob", "rtm-attempts/commit", "fallback-rate",
                 "in-place", "logged", "commit(us)"});
    for (double prob : abort_probs) {
        BenchConfig config;
        config.kind = core::EngineKind::Fast;
        config.commitVia = core::InPlaceCommitVia::Rtm;
        config.latency = pm::LatencyModel::of(300, 300);
        config.opsPerClient = args.numTxns;
        config.rtm.abortProbability = prob;
        config.rtm.seed = 1234;
        BenchResult result = runBench(config);
        const core::EngineStats &es = result.counters.engine;
        const htm::RtmStats &rtm = result.counters.rtm;

        double commits_total =
            static_cast<double>(es.inPlaceCommits + es.logCommits);
        double attempts =
            rtm.begins > 0 && rtm.commits > 0
                ? static_cast<double>(rtm.begins) /
                      static_cast<double>(rtm.commits)
                : 0.0;
        double fallback_rate =
            commits_total > 0
                ? static_cast<double>(rtm.fallbacks) / commits_total
                : 0.0;
        table.addRow({Table::fmt(prob, 2), Table::fmt(attempts, 2),
                      Table::fmt(100.0 * fallback_rate, 2) + "%",
                      Table::fmt(es.inPlaceCommits),
                      Table::fmt(es.logCommits),
                      Table::fmt(commitNs(result,
                                          core::EngineKind::Fast) /
                                     1000.0,
                                 3)});
    }
    std::string sweep_title =
        "Table C: FAST commit under injected RTM aborts "
        "(retry budget 64, then slot-header-logging fallback)";
    table.print(sweep_title);

    Table classes({"clients", "begins", "commits", "injected",
                   "contention", "fallbacks"});
    const std::size_t client_counts[] = {1, 2, 4};
    for (std::size_t clients : client_counts) {
        BenchConfig config;
        config.kind = core::EngineKind::Fast;
        config.commitVia = core::InPlaceCommitVia::Rtm;
        config.clients = clients;
        config.opsPerClient =
            std::max<std::size_t>(args.numTxns / clients, 50);
        const htm::RtmStats rtm = runBench(config).counters.rtm;
        classes.addRow({Table::fmt(static_cast<std::uint64_t>(clients)),
                        Table::fmt(rtm.begins), Table::fmt(rtm.commits),
                        Table::fmt(rtm.abortsInjected),
                        Table::fmt(rtm.abortsContention),
                        Table::fmt(rtm.fallbacks)});
    }
    std::string class_title =
        "Table C (cont.): RTM abort classes vs concurrent clients "
        "(FAST insert workload)";
    classes.print(class_title);

    Table pcas_sweep({"fail-prob", "cas-attempts/commit",
                      "fallback-rate", "in-place", "logged",
                      "commit(us)"});
    for (double prob : abort_probs) {
        BenchConfig config;
        config.kind = core::EngineKind::Fast;
        config.latency = pm::LatencyModel::of(300, 300);
        config.opsPerClient = args.numTxns;
        config.pcas.failProbability = prob;
        config.pcas.seed = 1234;
        BenchResult result = runBench(config);
        const core::EngineStats &es = result.counters.engine;
        const pm::PcasStats &ps = result.counters.pcas;

        double commits_total =
            static_cast<double>(es.inPlaceCommits + es.logCommits);
        double attempts =
            ps.casCommits > 0 ? static_cast<double>(ps.casAttempts) /
                                    static_cast<double>(ps.casCommits)
                              : 0.0;
        double fallback_rate =
            commits_total > 0
                ? static_cast<double>(es.pcasFallbacks) / commits_total
                : 0.0;
        pcas_sweep.addRow(
            {Table::fmt(prob, 2), Table::fmt(attempts, 2),
             Table::fmt(100.0 * fallback_rate, 2) + "%",
             Table::fmt(es.inPlaceCommits), Table::fmt(es.logCommits),
             Table::fmt(commitNs(result, core::EngineKind::Fast) /
                            1000.0,
                        3)});
    }
    std::string pcas_sweep_title =
        "Table C (cont.): FAST commit under injected PCAS failures "
        "(retry budget 8, then slot-header-logging fallback)";
    pcas_sweep.print(pcas_sweep_title);

    // Cumulative FAST span aggregates, for the before/after deltas of
    // the cause table (all-zero when the obs layer is off).
    auto fast_span_counts = [] {
        std::array<std::uint64_t, 7> c{};
        if (!obs::enabled())
            return c;
        for (const obs::EngineSpanSummary &s :
             obs::SpanProfiler::global().engineSummaries()) {
            if (s.engine != nullptr &&
                std::strcmp(s.engine, "FAST") == 0) {
                c = {s.spans,          s.aborts,     s.latchWaits,
                     s.latchConflicts, s.latchWaitNs, s.pcasRetries,
                     s.pcasHelps};
            }
        }
        return c;
    };

    Table pcas_classes({"clients", "attempts", "commits", "injected",
                        "conflicts", "exhausted", "helps",
                        "fallbacks"});
    Table causes({"clients", "spans", "span-aborts", "latch-waits",
                  "latch-conflicts", "latch-wait(ns)", "pcas-retries",
                  "pcas-helps"});
    for (std::size_t clients : client_counts) {
        BenchConfig config;
        config.kind = core::EngineKind::Fast;
        config.clients = clients;
        config.opsPerClient =
            std::max<std::size_t>(args.numTxns / clients, 50);
        std::array<std::uint64_t, 7> before = fast_span_counts();
        BenchResult result = runBench(config);
        std::array<std::uint64_t, 7> after = fast_span_counts();
        const pm::PcasStats &ps = result.counters.pcas;
        pcas_classes.addRow(
            {Table::fmt(static_cast<std::uint64_t>(clients)),
             Table::fmt(ps.casAttempts),
             Table::fmt(ps.casCommits),
             Table::fmt(ps.casInjected),
             Table::fmt(ps.casConflicts),
             Table::fmt(ps.casExhausted),
             Table::fmt(ps.helps),
             Table::fmt(result.counters.engine.pcasFallbacks)});
        std::vector<std::string> cause_row;
        cause_row.push_back(
            Table::fmt(static_cast<std::uint64_t>(clients)));
        for (std::size_t i = 0; i < before.size(); ++i)
            cause_row.push_back(Table::fmt(after[i] - before[i]));
        causes.addRow(cause_row);
    }
    std::string pcas_class_title =
        "Table C (cont.): PCAS outcome classes vs concurrent clients "
        "(FAST insert workload, PCAS commit)";
    pcas_classes.print(pcas_class_title);

    std::string cause_title =
        "Table C (cont.): span-attributed abort/retry causes vs "
        "clients (0 unless --metrics/--trace)";
    causes.print(cause_title);

    std::printf("\nexpected: graceful degradation — retries absorb "
                "moderate abort rates; heavy abort pressure shifts "
                "commits to the logging path (toward FASH cost); "
                "contention aborts grow with clients, capacity stays "
                "0 for single-line commits; PCAS real conflicts stay "
                "0 under the page latch\n");

    JsonReport report(args.jsonPath, "tblC_htm_aborts");
    report.add(sweep_title, table);
    report.add(class_title, classes);
    report.add(pcas_sweep_title, pcas_sweep);
    report.add(pcas_class_title, pcas_classes);
    report.add(cause_title, causes);
    report.write();
    args.writeMetrics("tblC_htm_aborts");
    return 0;
}
