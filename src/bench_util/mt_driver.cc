#include "bench_util/mt_driver.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/fasp_engine.h"
#include "obs/metrics.h"
#include "pager/latch_table.h"
#include "pm/checker.h"
#include "pm/device.h"

namespace fasp::benchutil {

using core::Engine;
using core::EngineConfig;
using core::EngineKind;

namespace {

std::size_t
autoDeviceSize(const MtConfig &config)
{
    std::size_t records = config.threads * config.txnsPerThread;
    std::size_t data = records * (config.recordSize + 96);
    std::size_t size = 3 * data + (48u << 20);
    size = (size + (1u << 20) - 1) & ~((std::size_t{1} << 20) - 1);
    return size;
}

/**
 * Conflict-abort retry backoff: sleep a uniform 1..N µs, N doubling
 * per consecutive conflict. Clients that back off in lock-step keep
 * failing each other's shared-to-exclusive upgrades (latches are held
 * to commit); the random draw breaks the symmetry, and the per-client
 * seed keeps runs reproducible. The sleep is not charged as active
 * time — on real hardware the other client's core makes progress
 * during it.
 */
class RetryBackoff
{
  public:
    explicit RetryBackoff(std::uint64_t seed) : jitter_(seed) {}

    void wait()
    {
        std::this_thread::sleep_for(
            std::chrono::microseconds(1 + jitter_.next() % bound_us_));
        bound_us_ = std::min<std::uint64_t>(bound_us_ * 2, 4096);
    }

    void reset() { bound_us_ = 1; }

  private:
    Rng jitter_;
    std::uint64_t bound_us_ = 1;
};

/** Calling thread's CPU time in ns. */
std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

struct ClientResult
{
    std::uint64_t committed = 0;
    std::uint64_t retries = 0;
    std::uint64_t activeNs = 0; //!< CPU + modelled PM time
    std::vector<std::uint64_t> keys;
};

void
clientLoop(Engine &engine, btree::BTree tree, const MtConfig &config,
           std::size_t tid, ClientResult &out)
{
    workload::KeyStream keys(workload::KeyPattern::UniformRandom,
                             config.seed + 1000 * (tid + 1));
    workload::ValueGen values = workload::ValueGen::fixed(
        config.recordSize, config.seed + tid + 1);
    std::vector<std::uint8_t> value;
    out.keys.reserve(config.txnsPerThread);

    // Concurrent per-txn latency recording: each client thread writes
    // the shared histogram (relaxed atomics).
    obs::Histogram *txn_hist = nullptr;
    if (obs::enabled()) {
        txn_hist = &obs::MetricsRegistry::global().histogram(
            std::string("bench.txn_ns.") +
            core::engineKindName(config.kind));
    }

    const std::uint64_t model_start = pm::threadModelNs();
    std::uint64_t cpu_start = threadCpuNs();

    RetryBackoff backoff(config.seed + 1000 * (tid + 1) + 7);
    while (out.committed < config.txnsPerThread) {
        std::uint64_t key = keys.next();
        values.next(value);
        std::uint64_t txn_cpu0 = txn_hist ? threadCpuNs() : 0;
        std::uint64_t txn_m0 = txn_hist ? pm::threadModelNs() : 0;
        Status status = Status::ok();
        try {
            status = engine.insert(
                tree, key, std::span<const std::uint8_t>(value));
        } catch (const LatchConflict &) {
            // Conflict-abort: the transaction rolled back; retry the
            // same key from scratch after a backoff, so a conflicting
            // transaction stuck behind the scheduler (or a commit
            // mutex) gets the cycles to finish.
            out.retries++;
            backoff.wait();
            continue;
        }
        if (status.code() == StatusCode::AlreadyExists)
            continue; // 64-bit key collision: draw another
        if (!status.isOk())
            faspFatal("mt bench insert failed: %s",
                      status.toString().c_str());
        backoff.reset();
        out.keys.push_back(key);
        out.committed++;
        if (txn_hist) {
            txn_hist->record((threadCpuNs() - txn_cpu0) +
                             (pm::threadModelNs() - txn_m0));
        }
    }

    out.activeNs = (threadCpuNs() - cpu_start) +
                   (pm::threadModelNs() - model_start);
}

} // namespace

MtResult
runMtInsertBench(const MtConfig &config)
{
    FASP_ASSERT(config.threads >= 1);

    pm::PmConfig pm_cfg;
    pm_cfg.size = config.deviceSize ? config.deviceSize
                                    : autoDeviceSize(config);
    pm_cfg.mode = pm::PmMode::Direct;
    pm_cfg.latency = config.latency;
    pm::PmDevice device(pm_cfg);

    EngineConfig engine_cfg;
    engine_cfg.kind = config.kind;
    engine_cfg.inPlaceCommitVia = config.commitVia;
    engine_cfg.pcas = config.pcas;
    engine_cfg.format.logLen = 16u << 20;
    auto engine_res = Engine::create(device, engine_cfg, true);
    if (!engine_res.isOk())
        faspFatal("mt bench: engine create failed: %s",
                  engine_res.status().toString().c_str());
    std::unique_ptr<Engine> engine = std::move(*engine_res);

    auto tree_res = engine->createTree(2);
    if (!tree_res.isOk())
        faspFatal("mt bench: tree create failed");
    btree::BTree tree = *tree_res;

    pm::PersistencyChecker checker;
    if (config.attachChecker)
        device.setChecker(&checker);
    device.invalidateTagCache();
    device.stats().reset();
    engine->stats().reset();
    const EngineCounters counters0 = EngineCounters::of(*engine);
    pm::PhaseTracker window;
    if (obs::enabled())
        window.start();

    std::vector<ClientResult> clients(config.threads);
    std::vector<std::thread> workers;
    workers.reserve(config.threads);

    auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < config.threads; ++t) {
        workers.emplace_back(clientLoop, std::ref(*engine), tree,
                             std::cref(config), t,
                             std::ref(clients[t]));
    }
    for (auto &w : workers)
        w.join();
    auto wall_end = std::chrono::steady_clock::now();

    MtResult result;
    result.threads = config.threads;
    result.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    // Makespan model: clients of the latch-based engines overlap
    // except where they conflict (and the losers' retries are already
    // charged to them), so the slowest client bounds the run. The
    // buffered baselines hold a whole-transaction mutex — client work
    // never overlaps, and blocking on a mutex burns no CPU — so their
    // makespan is the *sum* of per-client active time.
    bool overlapping = config.kind == EngineKind::Fast ||
                       config.kind == EngineKind::Fash;
    std::uint64_t makespan = 0;
    for (const ClientResult &c : clients) {
        result.txns += c.committed;
        result.conflictRetries += c.retries;
        makespan = overlapping ? std::max(makespan, c.activeNs)
                               : makespan + c.activeNs;
    }
    result.modeledSeconds = static_cast<double>(makespan) * 1e-9;
    result.txnsPerSecond =
        result.modeledSeconds > 0
            ? static_cast<double>(result.txns) / result.modeledSeconds
            : 0;
    result.engineStats = engine->stats();
    result.pmStats = device.stats();
    if (auto *fasp = dynamic_cast<core::FaspEngine *>(engine.get())) {
        result.rtmStats = fasp->rtm().stats();
        result.pcasStats = fasp->pcas().stats();
    }

    if (config.attachChecker) {
        device.setChecker(nullptr);
        result.checkerViolations = checker.report().total();
    }
    if (obs::enabled()) {
        window.stop();
        obs::PhaseLedger::global().fold(
            core::engineKindName(config.kind), window);
        foldCounters(*engine, counters0);
    }

    // Single-threaded consistency check: the tree must hold exactly
    // the committed keys.
    auto counted = tree.count(engine->begin()->pageIO());
    if (!counted.isOk())
        faspFatal("mt bench: post-run count failed");
    if (*counted != result.txns)
        faspFatal("mt bench: tree holds %llu records, %llu committed",
                  static_cast<unsigned long long>(*counted),
                  static_cast<unsigned long long>(result.txns));
    std::vector<std::uint8_t> read_back;
    for (const ClientResult &c : clients) {
        for (std::uint64_t key : c.keys) {
            Status status = engine->get(tree, key, read_back);
            if (!status.isOk())
                faspFatal("mt bench: committed key %llu missing: %s",
                          static_cast<unsigned long long>(key),
                          status.toString().c_str());
        }
    }
    return result;
}

namespace {

std::size_t
autoYcsbDeviceSize(const MtYcsbConfig &config)
{
    std::size_t records = config.threads *
        (config.preloadPerThread + config.opsPerThread);
    std::size_t data = records * (config.recordSize + 96);
    std::size_t size = 3 * data + (48u << 20);
    size = (size + (1u << 20) - 1) & ~((std::size_t{1} << 20) - 1);
    return size;
}

struct YcsbClientResult
{
    std::uint64_t ops = 0;
    std::uint64_t opCounts[5] = {};
    std::uint64_t scanned = 0;
    std::uint64_t retries = 0;
    std::uint64_t activeNs = 0;
    std::vector<std::uint64_t> opNs; //!< per-op CPU + modelled PM time
};

/** One YCSB op as one (or for RMW, one two-step) transaction.
 *  Throws LatchConflict for the caller's retry loop. */
Status
runYcsbOp(Engine &engine, btree::BTree &tree,
          const workload::YcsbOpSpec &op,
          std::span<const std::uint8_t> value,
          std::vector<std::uint8_t> &scratch, std::uint64_t &scanned)
{
    switch (op.type) {
      case workload::YcsbOp::Read:
        return engine.get(tree, op.key, scratch);
      case workload::YcsbOp::Update:
        return engine.update(tree, op.key, value);
      case workload::YcsbOp::Insert: {
        Status status = engine.insert(tree, op.key, value);
        // A hashed-index collision across clients: the record exists,
        // which is all the workload model requires.
        if (status.code() == StatusCode::AlreadyExists)
            return Status::ok();
        return status;
      }
      case workload::YcsbOp::Scan: {
        std::uint32_t remaining = op.scanLen;
        std::uint64_t visited = 0;
        Status status = engine.scan(
            tree, op.key, ~std::uint64_t{0},
            [&](std::uint64_t, std::span<const std::uint8_t>) {
                ++visited;
                return --remaining > 0;
            });
        scanned += visited;
        return status;
      }
      case workload::YcsbOp::ReadModifyWrite: {
        auto tx = engine.begin();
        Status status = tree.get(tx->pageIO(), op.key, scratch);
        if (status.isOk())
            status = tree.update(tx->pageIO(), op.key, value);
        if (!status.isOk()) {
            tx->rollback();
            return status;
        }
        return tx->commit();
      }
    }
    faspPanic("bad ycsb op");
}

void
ycsbClientLoop(Engine &engine, btree::BTree tree,
               const MtYcsbConfig &config, std::size_t tid,
               YcsbClientResult &out)
{
    workload::YcsbWorkload::Options wl_opt;
    wl_opt.mix = workload::ycsbMix(config.mix);
    wl_opt.seed = config.seed + 1000 * (tid + 1);
    wl_opt.preload = config.preloadPerThread;
    wl_opt.order = config.order;
    wl_opt.indexOffset = tid;
    wl_opt.indexStride = config.threads;
    workload::YcsbWorkload wl(wl_opt);

    workload::ValueGen values = workload::ValueGen::fixed(
        config.recordSize, config.seed + tid + 1);
    std::vector<std::uint8_t> value;
    std::vector<std::uint8_t> scratch;
    out.opNs.reserve(config.opsPerThread);

    const std::uint64_t model_start = pm::threadModelNs();
    std::uint64_t cpu_start = threadCpuNs();

    RetryBackoff backoff(config.seed + 1000 * (tid + 1) + 7);
    while (out.ops < config.opsPerThread) {
        workload::YcsbOpSpec op = wl.next();
        values.next(value);
        std::uint64_t op_cpu0 = threadCpuNs();
        std::uint64_t op_m0 = pm::threadModelNs();
        Status status = Status::ok();
        // Retry THIS op on latch conflicts: the workload already
        // advanced its state for it (an Insert consumed a key index),
        // so drawing a fresh op instead would silently drop the key
        // the post-run verification — rightly — expects.
        for (;;) {
            try {
                status = runYcsbOp(engine, tree, op,
                                   std::span<const std::uint8_t>(value),
                                   scratch, out.scanned);
                break;
            } catch (const LatchConflict &) {
                out.retries++;
                backoff.wait();
            }
        }
        if (!status.isOk())
            faspFatal("ycsb %s on key %llu failed: %s",
                      workload::ycsbOpName(op.type),
                      static_cast<unsigned long long>(op.key),
                      status.toString().c_str());
        backoff.reset();
        out.opCounts[static_cast<std::size_t>(op.type)]++;
        out.ops++;
        out.opNs.push_back((threadCpuNs() - op_cpu0) +
                           (pm::threadModelNs() - op_m0));
    }

    out.activeNs = (threadCpuNs() - cpu_start) +
                   (pm::threadModelNs() - model_start);
}

} // namespace

MtYcsbResult
runMtYcsbBench(const MtYcsbConfig &config)
{
    FASP_ASSERT(config.threads >= 1);

    pm::PmConfig pm_cfg;
    pm_cfg.size = config.deviceSize ? config.deviceSize
                                    : autoYcsbDeviceSize(config);
    pm_cfg.mode = pm::PmMode::Direct;
    pm_cfg.latency = config.latency;
    pm::PmDevice device(pm_cfg);

    EngineConfig engine_cfg;
    engine_cfg.kind = config.kind;
    engine_cfg.inPlaceCommitVia = config.commitVia;
    engine_cfg.pcas = config.pcas;
    engine_cfg.format.logLen = 16u << 20;
    auto engine_res = Engine::create(device, engine_cfg, true);
    if (!engine_res.isOk())
        faspFatal("ycsb bench: engine create failed: %s",
                  engine_res.status().toString().c_str());
    std::unique_ptr<Engine> engine = std::move(*engine_res);

    auto tree_res = engine->createTree(2);
    if (!tree_res.isOk())
        faspFatal("ycsb bench: tree create failed");
    btree::BTree tree = *tree_res;

    // Preload every client's slice single-threaded (load phase is not
    // measured; YCSB times only the transaction phase).
    {
        workload::ValueGen values =
            workload::ValueGen::fixed(config.recordSize, config.seed);
        std::vector<std::uint8_t> value;
        for (std::size_t t = 0; t < config.threads; ++t) {
            workload::YcsbWorkload::Options wl_opt;
            wl_opt.mix = workload::ycsbMix(config.mix);
            wl_opt.preload = config.preloadPerThread;
            wl_opt.order = config.order;
            wl_opt.indexOffset = t;
            wl_opt.indexStride = config.threads;
            workload::YcsbWorkload wl(wl_opt);
            for (std::uint64_t i = 0; i < config.preloadPerThread; ++i) {
                values.next(value);
                Status status = engine->insert(
                    tree, wl.keyOfIndex(i),
                    std::span<const std::uint8_t>(value));
                if (!status.isOk() &&
                    status.code() != StatusCode::AlreadyExists)
                    faspFatal("ycsb bench: preload failed: %s",
                              status.toString().c_str());
            }
        }
    }

    pm::PersistencyChecker checker;
    if (config.attachChecker)
        device.setChecker(&checker);
    device.invalidateTagCache();
    device.stats().reset();
    engine->stats().reset();
    const EngineCounters counters0 = EngineCounters::of(*engine);
    pm::PhaseTracker window;
    if (obs::enabled())
        window.start();

    std::vector<YcsbClientResult> clients(config.threads);
    std::vector<std::thread> workers;
    workers.reserve(config.threads);

    auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < config.threads; ++t) {
        workers.emplace_back(ycsbClientLoop, std::ref(*engine), tree,
                             std::cref(config), t,
                             std::ref(clients[t]));
    }
    for (auto &w : workers)
        w.join();
    auto wall_end = std::chrono::steady_clock::now();

    MtYcsbResult result;
    result.threads = config.threads;
    result.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    bool overlapping = config.kind == EngineKind::Fast ||
                       config.kind == EngineKind::Fash;
    std::uint64_t makespan = 0;
    std::vector<std::uint64_t> all_op_ns;
    for (const YcsbClientResult &c : clients) {
        result.ops += c.ops;
        result.scannedRecords += c.scanned;
        result.conflictRetries += c.retries;
        for (std::size_t i = 0; i < 5; ++i)
            result.opCounts[i] += c.opCounts[i];
        makespan = overlapping ? std::max(makespan, c.activeNs)
                               : makespan + c.activeNs;
        all_op_ns.insert(all_op_ns.end(), c.opNs.begin(), c.opNs.end());
    }
    result.modeledSeconds = static_cast<double>(makespan) * 1e-9;
    result.opsPerSecond =
        result.modeledSeconds > 0
            ? static_cast<double>(result.ops) / result.modeledSeconds
            : 0;
    if (!all_op_ns.empty()) {
        std::sort(all_op_ns.begin(), all_op_ns.end());
        std::uint64_t sum = 0;
        for (std::uint64_t ns : all_op_ns)
            sum += ns;
        result.meanOpUs = static_cast<double>(sum) /
                          static_cast<double>(all_op_ns.size()) * 1e-3;
        result.p50OpUs = static_cast<double>(
                             all_op_ns[all_op_ns.size() / 2]) * 1e-3;
        result.p99OpUs = static_cast<double>(
                             all_op_ns[all_op_ns.size() * 99 / 100]) *
                         1e-3;
    }
    result.engineStats = engine->stats();
    result.pmStats = device.stats();

    if (config.attachChecker) {
        device.setChecker(nullptr);
        result.checkerViolations = checker.report().total();
    }
    if (obs::enabled()) {
        window.stop();
        obs::PhaseLedger::global().fold(
            core::engineKindName(config.kind), window);
        foldCounters(*engine, counters0);
    }

    // Post-run verification: every key each client's workload believes
    // inserted (preload + issued inserts) must be present.
    std::vector<std::uint8_t> read_back;
    for (std::size_t t = 0; t < config.threads; ++t) {
        workload::YcsbWorkload::Options wl_opt;
        wl_opt.mix = workload::ycsbMix(config.mix);
        wl_opt.preload = config.preloadPerThread;
        wl_opt.order = config.order;
        wl_opt.indexOffset = t;
        wl_opt.indexStride = config.threads;
        workload::YcsbWorkload wl(wl_opt);
        std::uint64_t issued =
            config.preloadPerThread +
            clients[t].opCounts[static_cast<std::size_t>(
                workload::YcsbOp::Insert)];
        for (std::uint64_t i = 0; i < issued; ++i) {
            Status status =
                engine->get(tree, wl.keyOfIndex(i), read_back);
            if (!status.isOk())
                faspFatal("ycsb bench: key %llu missing post-run: %s",
                          static_cast<unsigned long long>(
                              wl.keyOfIndex(i)),
                          status.toString().c_str());
        }
    }
    return result;
}

} // namespace fasp::benchutil
