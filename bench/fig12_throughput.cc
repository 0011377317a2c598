/**
 * @file
 * Figure 12: SQL-level transaction throughput as PM latency grows,
 * plus the multi-client extension.
 *
 * Default mode sweeps PM latency single-threaded through the full SQL
 * path. Expected shape: FAST sustains the highest ops/s at every
 * latency and the advantage persists out to 1.2us PM latency (the
 * paper stresses FAST is still 1.5-2x faster than NVWAL even at
 * 1.2us).
 *
 * With --clients=N the bench instead runs the insert workload with
 * 1..N concurrent client threads per engine (powers of two, e.g.
 * --clients=64 sweeps 1/2/4/8/16/32/64), reporting modelled
 * throughput, latch conflict retries and PCAS logging fallbacks, then
 * repeats each point with the persistency checker attached and reports
 * its violation count (expected 0; any violation makes the bench
 * exit 1). Expected shape: FAST/FASH throughput scales with clients
 * while the buffered baselines stay flat on their single-writer mutex.
 */

#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "btree/btree.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pm/device.h"

using namespace fasp;
using namespace fasp::benchutil;

namespace {

/**
 * Recovery-time section: crash each engine mid-insert on a CacheSim
 * device, re-open it (running recovery), and report the per-phase
 * breakdown the engine layer records into the RecoveryLedger. One
 * sample = one crash + one recovery; the p50/p95 columns summarise
 * across samples.
 */
void
runRecoverySamples(const BenchArgs &args, JsonReport &report)
{
    obs::RecoveryLedger::global().reset();
    const std::size_t samples = args.smoke ? 3 : 8;
    const std::uint64_t seed_keys = args.smoke ? 40 : 120;
    const std::vector<std::uint8_t> val(64, 0x5a);
    auto as_span = [&] {
        return std::span<const std::uint8_t>(val);
    };

    for (core::EngineKind kind : allEngines()) {
        for (std::size_t s = 0; s < samples; ++s) {
            pm::PmConfig pmcfg;
            pmcfg.size = 6u << 20;
            pmcfg.mode = pm::PmMode::CacheSim;
            pmcfg.crashPolicy = pm::CrashPolicy::DropAll;
            pmcfg.crashSeed = s * 7919 + 13;
            pm::PmDevice device(pmcfg);

            core::EngineConfig cfg;
            cfg.kind = kind;
            cfg.format.logLen = 1u << 20;
            cfg.volatileCachePages = 512;

            auto created =
                core::Engine::create(device, cfg, /*format=*/true);
            if (!created.isOk()) {
                std::fprintf(stderr, "recovery bench: %s\n",
                             created.status().toString().c_str());
                return;
            }
            std::unique_ptr<core::Engine> engine = std::move(*created);
            auto tree_res = engine->createTree(1);
            if (!tree_res.isOk()) {
                std::fprintf(stderr, "recovery bench: %s\n",
                             tree_res.status().toString().c_str());
                return;
            }
            btree::BTree tree = *tree_res;
            for (std::uint64_t key = 1; key <= seed_keys; ++key) {
                if (!engine->insert(tree, key, as_span()).isOk())
                    break;
            }

            // Crash partway into the next batch; vary the point per
            // sample so recovery sees different amounts of log tail.
            pm::PointCrashInjector injector(device.eventCount() + 24 +
                                            s * 31);
            device.setCrashInjector(&injector);
            try {
                for (std::uint64_t key = 10000; key < 12000; ++key) {
                    if (!engine->insert(tree, key, as_span()).isOk())
                        break;
                }
            } catch (const pm::CrashException &) {
            }
            device.setCrashInjector(nullptr);
            engine.reset();
            if (!device.crashed())
                continue; // window overshot: nothing to recover
            device.reviveAfterCrash();

            auto recovered =
                core::Engine::create(device, cfg, /*format=*/false);
            if (!recovered.isOk()) {
                std::fprintf(stderr, "recovery bench: %s\n",
                             recovered.status().toString().c_str());
                return;
            }
        }
    }

    Table phases({"engine", "phase", "samples", "p50(ns)", "p95(ns)",
                  "mean(ns)"});
    Table totals({"engine", "recoveries", "pages-scanned", "replayed",
                  "discarded", "torn"});
    for (const obs::RecoveryLedger::EntrySnapshot &entry :
         obs::RecoveryLedger::global().entries()) {
        totals.addRow({entry.engine, Table::fmt(entry.recoveries),
                       Table::fmt(entry.pagesScanned),
                       Table::fmt(entry.recordsReplayed),
                       Table::fmt(entry.recordsDiscarded),
                       Table::fmt(entry.tornRecords)});
        for (std::size_t p = 0; p < obs::kNumRecoveryPhases; ++p) {
            const obs::HistogramSnapshot &h = entry.phases[p];
            phases.addRow(
                {entry.engine,
                 obs::recoveryPhaseName(
                     static_cast<obs::RecoveryPhase>(p)),
                 Table::fmt(h.count), Table::fmt(h.p50),
                 Table::fmt(h.p95),
                 Table::fmt(h.count > 0 ? static_cast<double>(h.sum) /
                                              static_cast<double>(
                                                  h.count)
                                        : 0.0,
                            0)});
        }
    }

    std::string phase_title =
        "Figure 12 (recovery): post-crash recovery time by phase";
    std::string totals_title =
        "Figure 12 (recovery): recovery work counters";
    phases.print(phase_title);
    totals.print(totals_title);
    report.add(phase_title, phases);
    report.add(totals_title, totals);
}

int
runLatencySweep(const BenchArgs &args)
{
    const std::uint64_t latencies[] = {120, 300, 600, 900, 1200};

    Table table({"latency(ns)", "engine", "ops/sec", "vs-NVWAL"});
    for (std::uint64_t lat : latencies) {
        double nvwal_tput = 0;
        for (core::EngineKind kind : paperEngines()) {
            SqlBenchConfig config;
            config.kind = kind;
            config.latency = pm::LatencyModel::of(lat, lat);
            config.numOps =
                std::max<std::size_t>(args.numTxns / 2, 500);
            config.mix = {60, 20, 10};
            SqlBenchResult result = runSqlBench(config);
            if (kind == core::EngineKind::Nvwal)
                nvwal_tput = result.opsPerSecond;
            table.addRow(
                {latencyLabel(config.latency),
                 core::engineKindName(kind),
                 Table::fmt(result.opsPerSecond, 0),
                 Table::fmt(result.opsPerSecond /
                                (nvwal_tput > 0 ? nvwal_tput : 1),
                            2) +
                     "x"});
        }
    }
    std::string title = "Figure 12: SQL throughput vs PM latency "
                        "(Mobibench-style mix)";
    table.print(title);

    JsonReport report(args.jsonPath, "fig12_throughput");
    report.add(title, table);
    runRecoverySamples(args, report);
    report.write();
    args.writeMetrics("fig12_throughput");
    return 0;
}

int
runMultiClient(const BenchArgs &args)
{
    std::vector<std::size_t> counts;
    for (std::size_t n = 1; n < args.clients; n *= 2)
        counts.push_back(n);
    counts.push_back(args.clients);

    // latch-p95(ns) comes from the span profiler's latch-wait
    // histogram, scoped to the point by resetLatchContention();
    // it reads 0 unless --metrics/--trace enabled the obs layer. The
    // column is intentionally absent from bench_compare's gate map:
    // wait times are host-share sensitive (see bench/snapshot.sh).
    // FAST runs last, so the metrics export's latch_contention section
    // and page_heat's latch fields describe FAST at the full client
    // count.
    Table perf({"engine", "clients", "txns", "ktxn/s", "speedup",
                "conflict-retries", "pcas-fallbacks", "latch-p95(ns)"});
    Table valid({"engine", "clients", "txns", "checker-violations"});
    std::uint64_t violations = 0;

    for (core::EngineKind kind : paperEngines()) {
        const char *label = core::engineKindName(kind);
        double base_tput = 0;
        for (std::size_t clients : counts) {
            BenchConfig config;
            config.kind = kind;
            config.clients = clients;
            config.opsPerClient =
                std::max<std::size_t>(args.numTxns / clients, 50);
            if (obs::enabled())
                obs::SpanProfiler::global().resetLatchContention();
            BenchResult result = runBench(config);
            std::uint64_t latch_p95 =
                obs::enabled()
                    ? obs::SpanProfiler::global().latchWaitHist().p95
                    : 0;
            double tput = result.opsPerSecond();
            if (clients == 1)
                base_tput = tput;
            perf.addRow(
                {label,
                 Table::fmt(static_cast<std::uint64_t>(clients)),
                 Table::fmt(result.ops), Table::fmt(tput / 1000.0, 1),
                 Table::fmt(tput / (base_tput > 0 ? base_tput : 1), 2) +
                     "x",
                 Table::fmt(result.retries),
                 Table::fmt(result.counters.engine.pcasFallbacks),
                 Table::fmt(latch_p95)});

            // Validation pass: same point, persistency checker on.
            config.attachChecker = true;
            BenchResult checked = runBench(config);
            violations += checked.checkerViolations;
            valid.addRow(
                {label,
                 Table::fmt(static_cast<std::uint64_t>(clients)),
                 Table::fmt(checked.ops),
                 Table::fmt(checked.checkerViolations)});
        }
    }

    std::string perf_title =
        "Figure 12 (multi-client): insert throughput vs clients";
    std::string valid_title =
        "Figure 12 (multi-client): persistency-checker validation";
    perf.print(perf_title);
    valid.print(valid_title);

    JsonReport report(args.jsonPath, "fig12_throughput_mt");
    report.add(perf_title, perf);
    report.add(valid_title, valid);
    report.write();
    args.writeMetrics("fig12_throughput_mt");
    if (violations != 0) {
        std::fprintf(stderr,
                     "fig12_throughput: %llu persistency-checker "
                     "violations\n",
                     static_cast<unsigned long long>(violations));
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    if (args.clients > 0)
        return runMultiClient(args);
    return runLatencySweep(args);
}
