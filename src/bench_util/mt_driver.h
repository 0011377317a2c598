/**
 * @file
 * Multi-threaded benchmark driver: N client threads hammering one
 * engine, for the paper's multi-client throughput experiments
 * (fig12_throughput --clients mode).
 *
 * Timing model. The testbed emulates PM latency by accounting (see
 * pm/latency.h), and CI machines may have a single core, so wall-clock
 * time says nothing about how concurrent clients would scale on real
 * hardware. Instead each client accumulates
 *
 *     its own CPU time (CLOCK_THREAD_CPUTIME_ID)
 *   + its own modelled PM stall time (pm::threadModelNs, its ledger)
 *
 * and the run's duration is the *maximum* over clients — on a machine
 * with >= N cores the clients run in parallel and the slowest one
 * bounds the makespan. Contention is still real: latch conflicts and
 * RTM contention aborts cost retries, which show up as extra CPU and
 * PM charges on the threads that lose races. Throughput therefore
 * scales with clients exactly insofar as the engine's concurrency
 * control allows, which is the property under test.
 */

#ifndef FASP_BENCH_UTIL_MT_DRIVER_H
#define FASP_BENCH_UTIL_MT_DRIVER_H

#include <cstdint>

#include "bench_util/runner.h"
#include "core/engine.h"
#include "pm/latency.h"
#include "workload/workload.h"

namespace fasp::benchutil {

/** One multi-client benchmark point. */
struct MtConfig
{
    core::EngineKind kind = core::EngineKind::Fast;
    pm::LatencyModel latency = pm::LatencyModel::of(300, 300);
    std::size_t threads = 4;
    std::size_t txnsPerThread = 2000; //!< single-insert txns per client
    std::size_t recordSize = 64;
    std::uint64_t seed = 42;
    std::size_t deviceSize = 0;       //!< 0 = sized automatically

    /** FAST in-place commit mechanism (PCAS default vs RTM). */
    core::InPlaceCommitVia commitVia = core::InPlaceCommitVia::Pcas;
    pm::PcasConfig pcas;              //!< PCAS failure injection

    /** Attach a PersistencyChecker for the run and report its
     *  violation count (validation pass; slower). */
    bool attachChecker = false;
};

/** Everything measured for one multi-client point. */
struct MtResult
{
    std::size_t threads = 0;
    std::uint64_t txns = 0;           //!< committed transactions
    double wallSeconds = 0;           //!< host wall clock (noise on
                                      //!< oversubscribed machines)
    double modeledSeconds = 0;        //!< max over clients of CPU +
                                      //!< modelled PM time
    double txnsPerSecond = 0;         //!< txns / modeledSeconds
    std::uint64_t conflictRetries = 0;//!< LatchConflict aborts retried
    std::uint64_t checkerViolations = 0;
    core::EngineStats engineStats;
    htm::RtmStats rtmStats;
    pm::PcasStats pcasStats;
    pm::PmStats pmStats;
};

/**
 * Run the paper's insert workload with config.threads concurrent
 * clients against one fresh engine. Each client commits
 * config.txnsPerThread single-insert transactions, retrying on
 * LatchConflict; afterwards a single-threaded full scan verifies the
 * B-tree contains exactly the committed keys (fatal on mismatch).
 */
MtResult runMtInsertBench(const MtConfig &config);

/** One multi-client YCSB benchmark point. */
struct MtYcsbConfig
{
    core::EngineKind kind = core::EngineKind::Fast;
    pm::LatencyModel latency = pm::LatencyModel::of(300, 300);
    std::size_t threads = 4;
    std::size_t opsPerThread = 2000;
    std::size_t recordSize = 64;
    std::uint64_t seed = 42;
    std::size_t deviceSize = 0;            //!< 0 = sized automatically

    char mix = 'A';                        //!< YCSB mix A-F
    std::size_t preloadPerThread = 1000;   //!< records loaded up front
    workload::KeyOrder order = workload::KeyOrder::Hashed;

    core::InPlaceCommitVia commitVia = core::InPlaceCommitVia::Pcas;
    pm::PcasConfig pcas;
    bool attachChecker = false;
};

/** Everything measured for one multi-client YCSB point. */
struct MtYcsbResult
{
    std::size_t threads = 0;
    std::uint64_t ops = 0;             //!< completed operations
    std::uint64_t opCounts[5] = {};    //!< per YcsbOp (enum order)
    std::uint64_t scannedRecords = 0;  //!< records visited by scans
    double wallSeconds = 0;
    double modeledSeconds = 0;         //!< makespan as in MtResult
    double opsPerSecond = 0;
    double meanOpUs = 0;               //!< per-op CPU + modelled PM time
    double p50OpUs = 0;
    double p99OpUs = 0;
    std::uint64_t conflictRetries = 0;
    std::uint64_t checkerViolations = 0;
    core::EngineStats engineStats;
    pm::PmStats pmStats;
};

/**
 * Run YCSB mix config.mix with config.threads concurrent clients
 * against one fresh engine. Each client owns a disjoint slice of the
 * logical keyspace (indexOffset/indexStride), preloads
 * config.preloadPerThread records, then issues config.opsPerThread
 * operations from its mix stream, retrying on LatchConflict. RMW runs
 * read + update in ONE transaction. A post-run verification asserts
 * every client's inserted keys are present (fatal on mismatch).
 */
MtYcsbResult runMtYcsbBench(const MtYcsbConfig &config);

} // namespace fasp::benchutil

#endif // FASP_BENCH_UTIL_MT_DRIVER_H
