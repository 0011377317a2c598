/**
 * @file
 * Benchmark harness: spins up a fresh database per (engine, latency)
 * point, runs the paper's workloads, and reports per-transaction
 * component breakdowns in the groups the paper's figures use.
 *
 * Reported times are `compute wall time + modelled PM latency`,
 * mirroring the paper's Quartz emulation (see pm/latency.h); being
 * accounting-based, they are deterministic up to CPU noise in the
 * wall-time share.
 */

#ifndef FASP_BENCH_UTIL_RUNNER_H
#define FASP_BENCH_UTIL_RUNNER_H

#include <array>
#include <memory>
#include <string>

#include "core/engine.h"
#include "pager/latch_table.h"
#include "pm/device.h"
#include "pm/phase.h"
#include "workload/workload.h"

namespace fasp::benchutil {

/** One benchmark point. */
struct BenchConfig
{
    core::EngineKind kind = core::EngineKind::Fast;
    pm::LatencyModel latency = pm::LatencyModel::of(300, 300);
    std::size_t numTxns = 20000;
    std::size_t recordSize = 64;       //!< value bytes per record
    std::size_t recordsPerTxn = 1;
    workload::KeyPattern keys = workload::KeyPattern::UniformRandom;
    std::uint64_t seed = 42;
    std::size_t deviceSize = 0;        //!< 0 = sized automatically
    /** FAST abort injection; starts from the engines' default. */
    htm::RtmConfig rtm = core::EngineConfig{}.rtm;
    bool useClwb = false;              //!< CLWB vs CLFLUSH ablation

    /** FAST in-place commit mechanism (PCAS default vs RTM). */
    core::InPlaceCommitVia commitVia = core::InPlaceCommitVia::Pcas;
    pm::PcasConfig pcas;               //!< PCAS failure injection
};

/** Everything measured for one point. */
struct BenchResult
{
    pm::PhaseTracker tracker; //!< ledger window over the measured txns
    pm::PmStats pmStats;
    core::EngineStats engineStats;
    htm::RtmStats rtmStats;
    pm::PcasStats pcasStats;
    std::uint64_t txns = 0;
    double wallSeconds = 0;

    /** Average ns/transaction attributed to @p comp. */
    double perTxnNs(pm::Component comp) const;

    /** clflush instructions per transaction. */
    double flushesPerTxn() const;
};

/** The paper's figure groups. */
struct Groups
{
    double searchNs = 0;     //!< Fig. 6 "Search"
    double pageUpdateNs = 0; //!< Fig. 6 "Page Update"
    double commitNs = 0;     //!< Fig. 6 "Commit"

    double totalNs() const
    {
        return searchNs + pageUpdateNs + commitNs;
    }
};

/**
 * Group per-txn component times as the paper's Figure 6 does. Lazy
 * checkpointing (NVWAL / legacy WAL) is excluded from Commit, as in
 * the paper ("NVWAL performs checkpointing in a lazy manner").
 */
Groups groupComponents(const BenchResult &result,
                       core::EngineKind kind);

/** Sum of the Figure 7 Page Update sub-components per txn. */
double pageUpdateNs(const BenchResult &result);

/** Sum of the Figure 8 Commit sub-components per txn. */
double commitNs(const BenchResult &result, core::EngineKind kind);

/**
 * The paper's main workload: @p numTxns transactions, each inserting
 * @p recordsPerTxn records with random keys.
 */
BenchResult runInsertBench(const BenchConfig &config);

/**
 * Snapshot of the stats structs an engine counts its events in: the
 * single count behind every exported core.*, pager.latch.* and htm.*
 * counter (DESIGN.md §11). The buffered engines have only EngineStats;
 * FAST/FASH add their latch table, PCAS and RTM stats.
 */
struct EngineCounters
{
    core::EngineStats engine;
    LatchStats latches;
    pm::PcasStats pcas;
    htm::RtmStats rtm;
    bool commitViaPcas = false;

    static EngineCounters of(core::Engine &engine);
};

/**
 * With obs enabled, add each stats field's change since @p before to
 * the global MetricsRegistry under its exported counter name. Zero
 * changes are skipped, so a counter appears in an export only once its
 * event happened. Every runner calls this where it folds its ledger
 * window into the PhaseLedger, so the counters and `pm_phases`
 * describe the same measured transactions. No-op with obs off.
 */
void foldCounters(core::Engine &engine, const EngineCounters &before);

/** Every engine kind, in the paper's comparison order. */
std::array<core::EngineKind, 3> paperEngines();

/** All five engines (for the ablation tables). */
std::array<core::EngineKind, 5> allEngines();

/** "300/600" style label for a latency model. */
std::string latencyLabel(const pm::LatencyModel &latency);

/** Parse "--n NNN" / "--n=NNN" / "--quick" style benchmark argv knobs.
 *  Both `--flag=value` and `--flag value` forms are accepted, at any
 *  argv position.
 *
 *   --n=NNN       transaction/op count
 *   --quick       2000 txns (fast local iteration)
 *   --smoke       300 txns (CI smoke: exercises every code path, no
 *                 measurement value)
 *   --json=PATH   also write the printed tables as a JSON report
 *   --clients=N   multi-client mode with N threads (benches that
 *                 support it; 0 = single-threaded latency sweep)
 *   --metrics=PATH  enable the obs layer and write its export here
 *                 (Prometheus text when PATH ends in ".prom", JSON
 *                 otherwise)
 *   --trace=PATH  enable the obs layer and dump the span rings as a
 *                 chrome://tracing JSON file here
 *   --flight-recorder  enable the persistent flight recorder (off by
 *                 default; adds ~2 PM records per transaction)
 */
struct BenchArgs
{
    std::size_t numTxns = 20000;
    bool smoke = false;
    std::string jsonPath;
    std::size_t clients = 0;
    std::string metricsPath;
    std::string tracePath;
    bool flightRecorder = false;

    static BenchArgs parse(int argc, char **argv);

    /** Like parse(), but removes the recognised flags from argv (in
     *  place, compacting; argc is updated) so a wrapped arg parser —
     *  e.g. Google Benchmark's — never sees them. */
    static BenchArgs parseAndStrip(int &argc, char **argv);

    /** Write the obs export to metricsPath and the chrome trace to
     *  tracePath (each a no-op when its flag was not given). Every
     *  bench main calls this after its run. */
    void writeMetrics(const std::string &benchName) const;
};

// --- SQL-level workloads (Figures 11-12) ------------------------------------

/** Per-op-type measurements through the full SQL path. */
struct SqlBenchResult
{
    /** Average response time (wall + model) per op type, ns. */
    double insertNs = 0;
    double updateNs = 0;
    double deleteNs = 0;
    double lookupNs = 0;
    std::uint64_t inserts = 0;
    std::uint64_t updates = 0;
    std::uint64_t deletes = 0;
    std::uint64_t lookups = 0;

    /** Aggregate throughput over all ops (ops per modelled second). */
    double opsPerSecond = 0;
};

/** Configuration of the SQL workload. */
struct SqlBenchConfig
{
    core::EngineKind kind = core::EngineKind::Fast;
    pm::LatencyModel latency = pm::LatencyModel::of(300, 300);
    std::size_t numOps = 6000;
    workload::MixedWorkload::Mix mix;
    std::size_t valueSize = 100;
    std::uint64_t seed = 42;
};

/** Mobibench-style mixed op workload through Database::exec. */
SqlBenchResult runSqlBench(const SqlBenchConfig &config);

} // namespace fasp::benchutil

#endif // FASP_BENCH_UTIL_RUNNER_H
