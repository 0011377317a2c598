/**
 * @file
 * Benchmark harness: one driver, runBench(), times every insert and
 * YCSB point. N client threads (`clients = 1` for the paper's figure
 * sweeps) run against a fresh engine on a fresh device; the measured
 * phase covers exactly their ops. Drivers whose ops are neither an
 * insert nor a YCSB stream (tblB's fragmentation mix, tblD's hash
 * index, runSqlBench) keep their own op loops but set up and measure
 * through the same BenchPoint.
 *
 * Two clocks:
 *  - the figure tables read per-component time from the PhaseTracker
 *    window: compute wall time + modelled PM latency, mirroring the
 *    paper's Quartz emulation (see pm/latency.h);
 *  - the multi-client tables read a makespan model. Each client
 *    accumulates its own CPU time (CLOCK_THREAD_CPUTIME_ID) plus its
 *    own modelled PM stall time (pm::threadModelNs). Clients of the
 *    latch-based engines (FAST/FASH) overlap except where they
 *    conflict, and the losers' retries are charged to them, so the
 *    slowest client bounds the run. The buffered baselines hold a
 *    whole-transaction mutex, so client work never overlaps and their
 *    makespan is the sum of per-client time.
 * Every run also records host wall seconds. The window holds the phase
 * clock over every measured phase, so each client's CPU time includes
 * a steady-clock read at each PhaseScope boundary.
 */

#ifndef FASP_BENCH_UTIL_RUNNER_H
#define FASP_BENCH_UTIL_RUNNER_H

#include <array>
#include <memory>
#include <string>

#include "btree/btree.h"
#include "core/engine.h"
#include "db/database.h"
#include "pager/latch_table.h"
#include "pm/checker.h"
#include "pm/device.h"
#include "pm/phase.h"
#include "workload/workload.h"

namespace fasp::benchutil {

/**
 * One benchmark point. Device size, seeds and the insert key pattern
 * are fixed: client c draws keys from KeyStream(UniformRandom,
 * 42 + 1000c) and values from ValueGen::fixed(recordSize, 43 + c).
 */
struct BenchConfig
{
    core::EngineKind kind = core::EngineKind::Fast;
    pm::PcasConfig pcas;               //!< PCAS failure injection
    bool useClwb = false;              //!< CLWB vs CLFLUSH ablation
    pm::LatencyModel latency = pm::LatencyModel::of(300, 300);

    std::size_t clients = 1;
    std::size_t opsPerClient = 20000;  //!< insert txns or YCSB ops
    std::size_t recordSize = 64;       //!< value bytes per record
    std::size_t recordsPerTxn = 1;     //!< insert stream only

    /** The op stream: 0 for transactions inserting random keys, or a
     *  YCSB mix 'A'-'F' over each client's slice of a preloaded
     *  keyspace. */
    char ycsbMix = 0;
    std::size_t preloadPerClient = 0;  //!< YCSB records loaded up front
    workload::KeyOrder order = workload::KeyOrder::Hashed; //!< YCSB

    /** Attach a PersistencyChecker over the measured phase. */
    bool attachChecker = false;
};

/**
 * Snapshot of the stats structs an engine counts its events in: the
 * single count behind every exported core.* and pager.latch.* counter
 * (DESIGN.md §11). The buffered engines have only EngineStats;
 * FAST/FASH add their latch table and PCAS stats.
 */
struct EngineCounters
{
    core::EngineStats engine;
    LatchStats latches;
    pm::PcasStats pcas;

    static EngineCounters of(core::Engine &engine);
};

/** Everything measured over one point's measured phase. */
struct BenchResult
{
    std::uint64_t ops = 0;            //!< insert txns or YCSB ops done
    /** Ops by workload::YcsbOp; an insert txn counts as one Insert. */
    std::array<std::uint64_t, 5> opCounts{};
    std::uint64_t scannedRecords = 0; //!< records visited by scans
    std::uint64_t retries = 0;        //!< LatchConflict aborts retried
    double wallSeconds = 0;           //!< host wall clock
    double modeledSeconds = 0;        //!< makespan of CPU + modelled PM
    double meanOpUs = 0;              //!< per op, CPU + modelled PM
    double p50OpUs = 0;
    double p99OpUs = 0;
    std::uint64_t checkerViolations = 0;
    pm::PhaseTracker window;          //!< ledger window over the ops
    pm::PmStats pmStats;
    /** The engine's stats at the end of the phase. Its EngineStats
     *  and PCAS stats count from the phase's start; latch stats are
     *  cumulative. */
    EngineCounters counters;

    /** ops / modeledSeconds. */
    double opsPerSecond() const;

    /** Average ns per op attributed to @p comp. */
    double perTxnNs(pm::Component comp) const;

    /** clflush instructions per op. */
    double flushesPerTxn() const;
};

/**
 * The paper's main workload and the YCSB mixes: BenchPoint::run() on a
 * fresh point sized for the records it writes, over a fresh tree.
 */
BenchResult runBench(const BenchConfig &config);

/**
 * One point's fresh device and engine, and its measured phase. The
 * engine is formatted with a 16 MiB log; with @p sql it belongs to a
 * fresh SQL database.
 */
class BenchPoint
{
  public:
    BenchPoint(const BenchConfig &config, std::size_t deviceSize,
               bool sql = false);

    pm::PmDevice &device() { return device_; }
    core::Engine &engine() { return *engine_; }
    db::Database &database() { return *database_; }

    /**
     * runBench()'s load on @p tree: preload it (YCSB), then, as the
     * measured phase, config.clients threads each run
     * config.opsPerClient ops. After a LatchConflict a client backs off
     * and retries the same op; only a 64-bit key collision
     * (AlreadyExists) draws a new key. Then every committed key must be
     * readable and, for insert streams, the tree must hold exactly the
     * committed records (fatal otherwise). Verification bills nothing
     * to the result or to the obs export.
     */
    BenchResult run(btree::BTree &tree);

    /** Attach the checker if config.attachChecker, reset the device's
     *  and engine's stats, snapshot the counters and open the window. */
    void startMeasuring();

    /** Close the window and fold it and the counters' change into the
     *  obs export (with obs on); copy the window, PmStats, counters and
     *  checker violations into @p result. */
    void stopMeasuring(BenchResult &result);

  private:
    BenchConfig config_;
    pm::PersistencyChecker checker_; //!< outlives the device
    pm::PmDevice device_;
    std::unique_ptr<db::Database> database_;
    std::unique_ptr<core::Engine> ownEngine_;
    core::Engine *engine_ = nullptr;
    EngineCounters counters0_;
    pm::PhaseTracker window_;
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
 * With obs enabled, add each stats field's change since @p before to
 * the global MetricsRegistry under its exported counter name. Zero
 * changes are skipped, so a counter appears in an export only once its
 * event happened. BenchPoint::stopMeasuring() calls this where it
 * folds its ledger window into the PhaseLedger, so the counters and
 * `pm_phases` describe the same measured transactions. No-op with obs
 * off.
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
 *   --metrics=PATH  enable the obs layer and write its JSON export
 *                 here
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

/** Configuration of the SQL workload (100-byte payloads, op stream
 *  seed 42). */
struct SqlBenchConfig
{
    core::EngineKind kind = core::EngineKind::Fast;
    pm::LatencyModel latency = pm::LatencyModel::of(300, 300);
    std::size_t numOps = 6000;
    workload::MixedWorkload::Mix mix;
};

/** Mobibench-style mixed op workload through Database::exec. */
SqlBenchResult runSqlBench(const SqlBenchConfig &config);

} // namespace fasp::benchutil

#endif // FASP_BENCH_UTIL_RUNNER_H
