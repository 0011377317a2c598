#include "bench_util/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <optional>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "core/fasp_engine.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace fasp::benchutil {

using core::Engine;
using core::EngineConfig;
using core::EngineKind;
using pm::Component;

double
BenchResult::opsPerSecond() const
{
    return modeledSeconds > 0 ? static_cast<double>(ops) / modeledSeconds
                              : 0;
}

double
BenchResult::perTxnNs(Component comp) const
{
    if (ops == 0)
        return 0;
    return static_cast<double>(window.totalNs(comp)) /
           static_cast<double>(ops);
}

double
BenchResult::flushesPerTxn() const
{
    if (ops == 0)
        return 0;
    return static_cast<double>(window.grandTotalFlushes()) /
           static_cast<double>(ops);
}

double
pageUpdateNs(const BenchResult &result)
{
    return result.perTxnNs(Component::VolatileCopy) +
           result.perTxnNs(Component::InPlaceInsert) +
           result.perTxnNs(Component::UpdateSlotHeader) +
           result.perTxnNs(Component::FlushRecord) +
           result.perTxnNs(Component::Defrag);
}

double
commitNs(const BenchResult &result, EngineKind kind)
{
    double total = result.perTxnNs(Component::NvwalCompute) +
                   result.perTxnNs(Component::HeapMgmt) +
                   result.perTxnNs(Component::LogFlush) +
                   result.perTxnNs(Component::WalIndex) +
                   result.perTxnNs(Component::Atomic64BWrite) +
                   result.perTxnNs(Component::CommitMisc);
    // The paper excludes lazy checkpointing from commit time; the
    // eager checkpointing of FAST/FASH (and the journal's in-place
    // database write) IS part of each commit.
    if (kind != EngineKind::Nvwal && kind != EngineKind::LegacyWal)
        total += result.perTxnNs(Component::Checkpoint);
    return total;
}

Groups
groupComponents(const BenchResult &result, EngineKind kind)
{
    Groups groups;
    groups.searchNs = result.perTxnNs(Component::Search);
    groups.pageUpdateNs = pageUpdateNs(result);
    groups.commitNs = commitNs(result, kind);
    return groups;
}

std::array<EngineKind, 3>
paperEngines()
{
    return {EngineKind::Nvwal, EngineKind::Fash, EngineKind::Fast};
}

std::array<EngineKind, 5>
allEngines()
{
    return {EngineKind::Journal, EngineKind::LegacyWal,
            EngineKind::Nvwal, EngineKind::Fash, EngineKind::Fast};
}

std::string
latencyLabel(const pm::LatencyModel &latency)
{
    return std::to_string(latency.pmReadNs) + "/" +
           std::to_string(latency.pmWriteNs);
}

EngineCounters
EngineCounters::of(Engine &engine)
{
    EngineCounters c;
    c.engine = engine.stats();
    if (auto *fasp = dynamic_cast<core::FaspEngine *>(&engine)) {
        c.latches = fasp->latches().statsSnapshot();
        c.pcas = fasp->pcas().stats();
    }
    return c;
}

void
foldCounters(Engine &engine, const EngineCounters &before)
{
    if (!obs::enabled())
        return;
    const EngineCounters now = EngineCounters::of(engine);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    auto add = [&reg](const char *name, std::uint64_t delta) {
        if (delta != 0)
            reg.counter(name).add(delta);
    };
    const core::EngineStats &e = now.engine, &e0 = before.engine;
    const pm::PcasStats &p = now.pcas, &p0 = before.pcas;

    add("core.tx.commits", e.txCommitted - e0.txCommitted);
    add("core.tx.rollbacks", e.txRolledBack - e0.txRolledBack);
    add("pager.latch.conflicts",
        now.latches.conflicts - before.latches.conflicts);
    add("pager.latch.shared_acquires",
        now.latches.sharedAcquires - before.latches.sharedAcquires);
    add("pager.latch.exclusive_acquires",
        now.latches.exclusiveAcquires - before.latches.exclusiveAcquires);
    add("pager.latch.upgrades",
        now.latches.upgrades - before.latches.upgrades);

    // Only FAST commits in place, and always through PCAS.
    add("core.pcas.commits", e.inPlaceCommits - e0.inPlaceCommits);
    add("core.pcas.fallbacks", e.pcasFallbacks - e0.pcasFallbacks);
    add("core.pcas.conflicts", p.casConflicts - p0.casConflicts);
    add("core.pcas.exhausted", p.casExhausted - p0.casExhausted);
}

namespace {

/**
 * Match argv[i] against --NAME, accepting both `--NAME=value` and
 * `--NAME value` spellings. On a match, *value points at the value
 * (or nullptr for a bare flag) and *consumed is how many argv slots
 * the flag used (1 or 2).
 */
bool
matchFlag(int argc, char **argv, int i, const char *name,
          bool wantsValue, const char **value, int *consumed)
{
    const char *arg = argv[i];
    std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0)
        return false;
    if (arg[len] == '\0') {
        if (!wantsValue) {
            *value = nullptr;
            *consumed = 1;
            return true;
        }
        if (i + 1 < argc) {
            *value = argv[i + 1];
            *consumed = 2;
            return true;
        }
        return false; // --flag at argv end with no value: not ours
    }
    if (arg[len] == '=' && wantsValue) {
        *value = arg + len + 1;
        *consumed = 1;
        return true;
    }
    return false; // e.g. --ns=... must not match --n
}

} // namespace

BenchArgs
BenchArgs::parse(int argc, char **argv)
{
    BenchArgs args;
    int i = 1;
    while (i < argc) {
        const char *value = nullptr;
        int consumed = 0;
        bool matched = false;
        if (matchFlag(argc, argv, i, "--n", true, &value, &consumed)) {
            args.numTxns =
                static_cast<std::size_t>(std::atoll(value));
            matched = true;
        } else if (matchFlag(argc, argv, i, "--quick", false, &value,
                             &consumed)) {
            args.numTxns = 2000;
            matched = true;
        } else if (matchFlag(argc, argv, i, "--smoke", false, &value,
                             &consumed)) {
            args.smoke = true;
            args.numTxns = 300;
            matched = true;
        } else if (matchFlag(argc, argv, i, "--json", true, &value,
                             &consumed)) {
            args.jsonPath = value;
            matched = true;
        } else if (matchFlag(argc, argv, i, "--clients", true, &value,
                             &consumed)) {
            args.clients =
                static_cast<std::size_t>(std::atoll(value));
            matched = true;
        } else if (matchFlag(argc, argv, i, "--metrics", true, &value,
                             &consumed)) {
            args.metricsPath = value;
            obs::setEnabled(true);
            matched = true;
        } else if (matchFlag(argc, argv, i, "--trace", true, &value,
                             &consumed)) {
            args.tracePath = value;
            obs::setEnabled(true);
            matched = true;
        } else if (matchFlag(argc, argv, i, "--flight-recorder", false,
                             &value, &consumed)) {
            args.flightRecorder = true;
            obs::FlightRecorder::setEnabled(true);
            matched = true;
        }
        i += matched ? consumed : 1;
    }
    if (args.numTxns == 0)
        args.numTxns = 1;
    return args;
}

void
BenchArgs::writeMetrics(const std::string &benchName) const
{
    if (!metricsPath.empty() &&
        obs::writeMetricsFile(metricsPath, benchName))
        std::printf("metrics written to %s\n", metricsPath.c_str());
    if (!tracePath.empty() && obs::writeTraceFile(tracePath))
        std::printf("trace written to %s\n", tracePath.c_str());
}

namespace {

/** Seed every stream of a point derives from. */
constexpr std::uint64_t kSeed = 42;

/** Client @p c's stream seed: client 0 draws the figure sweeps'
 *  KeyStream(UniformRandom, 42); YCSB op streams use the same seeds. */
std::uint64_t
clientSeed(std::size_t c)
{
    return kSeed + 1000 * c;
}

/** Three times the bytes @p records records of @p recordSize take,
 *  plus 48 MiB, rounded up to 1 MiB. */
std::size_t
autoDeviceSize(std::size_t records, std::size_t recordSize)
{
    std::size_t size = 3 * records * (recordSize + 96) + (48u << 20);
    return (size + (1u << 20) - 1) & ~((std::size_t{1} << 20) - 1);
}

/** Calling thread's CPU time in ns. */
std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
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

/** Client @p c's slice of @p config's YCSB keyspace. */
workload::YcsbWorkload
ycsbSlice(const BenchConfig &config, std::size_t c)
{
    workload::YcsbWorkload::Options opt;
    opt.mix = workload::ycsbMix(config.ycsbMix);
    opt.seed = clientSeed(c);
    opt.preload = config.preloadPerClient;
    opt.order = config.order;
    opt.indexOffset = c;
    opt.indexStride = config.clients;
    return workload::YcsbWorkload(opt);
}

/** What one client did in the measured phase. */
struct ClientResult
{
    std::uint64_t ops = 0;
    std::array<std::uint64_t, 5> opCounts{};
    std::uint64_t scanned = 0;
    std::uint64_t retries = 0;
    std::uint64_t activeNs = 0;        //!< CPU + modelled PM time
    std::vector<std::uint64_t> opNs;   //!< per op, the same clock
    std::vector<std::uint64_t> keys;   //!< keys its ops inserted
};

/** One record of an insert transaction. */
struct Record
{
    std::uint64_t key = 0;
    std::vector<std::uint8_t> value;
};

/**
 * One insert transaction of @p txn's records. A 64-bit key collision
 * (AlreadyExists) draws a new key and value for that record; a
 * LatchConflict propagates with the transaction rolled back.
 */
Status
insertTxn(Engine &engine, btree::BTree &tree,
          std::vector<Record> &txn, workload::KeyStream &keys,
          workload::ValueGen &values)
{
    auto tx = engine.begin();
    for (Record &rec : txn) {
        for (;;) {
            Status status = tree.insert(
                tx->pageIO(), rec.key,
                std::span<const std::uint8_t>(rec.value));
            if (status.code() != StatusCode::AlreadyExists) {
                if (!status.isOk())
                    return status;
                break;
            }
            values.next(rec.value);
            rec.key = keys.next();
        }
    }
    return tx->commit();
}

/** One YCSB op as one transaction (RMW reads and updates in the same
 *  one). A LatchConflict propagates with the transaction rolled back. */
Status
ycsbOp(Engine &engine, btree::BTree &tree,
       const workload::YcsbOpSpec &op, std::span<const std::uint8_t> value,
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

/** Client @p c's op loop: config.opsPerClient ops, each retried after
 *  a LatchConflict until it completes. */
void
runClient(Engine &engine, btree::BTree tree,
          const BenchConfig &config, std::size_t c, ClientResult &out)
{
    workload::KeyStream keys(workload::KeyPattern::UniformRandom,
                             clientSeed(c));
    workload::ValueGen values =
        workload::ValueGen::fixed(config.recordSize, kSeed + 1 + c);
    std::optional<workload::YcsbWorkload> ycsb;
    if (config.ycsbMix != 0)
        ycsb.emplace(ycsbSlice(config, c));
    std::vector<Record> txn(ycsb ? 1 : config.recordsPerTxn);
    std::vector<std::uint8_t> scratch;
    RetryBackoff backoff(clientSeed(c) + 7);
    out.opNs.reserve(config.opsPerClient);

    obs::Histogram *op_hist = nullptr;
    if (obs::enabled()) {
        op_hist = &obs::MetricsRegistry::global().histogram(
            std::string("bench.txn_ns.") +
            core::engineKindName(config.kind));
    }

    const std::uint64_t start_ns = threadCpuNs() + pm::threadModelNs();
    std::uint64_t last_ns = start_ns;
    for (std::size_t i = 0; i < config.opsPerClient; ++i) {
        workload::YcsbOpSpec op{workload::YcsbOp::Insert, 0};
        if (ycsb) {
            op = ycsb->next();
            values.next(txn[0].value);
        } else {
            for (Record &rec : txn) {
                values.next(rec.value);
                rec.key = keys.next();
            }
        }
        Status status;
        for (;;) {
            try {
                status = ycsb ? ycsbOp(engine, tree, op,
                                       std::span<const std::uint8_t>(
                                           txn[0].value),
                                       scratch, out.scanned)
                              : insertTxn(engine, tree, txn, keys, values);
                break;
            } catch (const LatchConflict &) {
                out.retries++;
                backoff.wait();
            }
        }
        if (!status.isOk())
            faspFatal("bench %s on key %llu failed: %s",
                      workload::ycsbOpName(op.type),
                      static_cast<unsigned long long>(
                          ycsb ? op.key : txn[0].key),
                      status.toString().c_str());
        backoff.reset();
        if (!ycsb) {
            for (const Record &rec : txn)
                out.keys.push_back(rec.key);
        } else if (op.type == workload::YcsbOp::Insert) {
            out.keys.push_back(op.key);
        }
        out.opCounts[static_cast<std::size_t>(op.type)]++;
        out.ops++;

        std::uint64_t now_ns = threadCpuNs() + pm::threadModelNs();
        out.opNs.push_back(now_ns - last_ns);
        if (op_hist)
            op_hist->record(now_ns - last_ns);
        last_ns = now_ns;
    }
    out.activeNs = last_ns - start_ns;
}

/** Preload each client's slice of the YCSB keyspace, single-threaded,
 *  and return the keys loaded. */
std::vector<std::uint64_t>
preload(Engine &engine, btree::BTree &tree,
        const BenchConfig &config)
{
    workload::ValueGen values =
        workload::ValueGen::fixed(config.recordSize, kSeed);
    std::vector<std::uint8_t> value;
    std::vector<std::uint64_t> loaded;
    for (std::size_t c = 0; c < config.clients; ++c) {
        workload::YcsbWorkload wl = ycsbSlice(config, c);
        for (std::uint64_t i = 0; i < config.preloadPerClient; ++i) {
            values.next(value);
            Status status = engine.insert(
                tree, wl.keyOfIndex(i),
                std::span<const std::uint8_t>(value));
            if (!status.isOk() &&
                status.code() != StatusCode::AlreadyExists)
                faspFatal("bench: preload failed: %s",
                          status.toString().c_str());
            loaded.push_back(wl.keyOfIndex(i));
        }
    }
    return loaded;
}

/** Every key in @p keys must be readable, and with @p records set the
 *  tree must hold exactly that many records (fatal otherwise). */
void
verify(Engine &engine, btree::BTree &tree,
       const std::vector<std::uint64_t> &keys,
       std::optional<std::uint64_t> records)
{
    if (records) {
        auto counted = tree.count(engine.begin()->pageIO());
        if (!counted.isOk())
            faspFatal("bench: post-run count failed");
        if (*counted != *records)
            faspFatal("bench: tree holds %llu records, %llu committed",
                      static_cast<unsigned long long>(*counted),
                      static_cast<unsigned long long>(*records));
    }
    std::vector<std::uint8_t> read_back;
    for (std::uint64_t key : keys) {
        Status status = engine.get(tree, key, read_back);
        if (!status.isOk())
            faspFatal("bench: committed key %llu missing: %s",
                      static_cast<unsigned long long>(key),
                      status.toString().c_str());
    }
}

} // namespace

BenchPoint::BenchPoint(const BenchConfig &config, std::size_t deviceSize,
                       bool sql)
    : config_(config),
      device_([&] {
          pm::PmConfig pm_cfg;
          pm_cfg.size = deviceSize;
          pm_cfg.mode = pm::PmMode::Direct;
          pm_cfg.latency = config.latency;
          pm_cfg.useClwb = config.useClwb;
          return pm_cfg;
      }())
{
    EngineConfig engine_cfg;
    engine_cfg.kind = config.kind;
    engine_cfg.pcas = config.pcas;
    engine_cfg.format.logLen = 16u << 20;
    if (sql) {
        auto db_res = db::Database::open(device_, engine_cfg, true);
        if (!db_res.isOk())
            faspFatal("bench: database open failed: %s",
                      db_res.status().toString().c_str());
        database_ = std::move(*db_res);
        engine_ = &database_->engine();
        return;
    }
    auto engine_res = Engine::create(device_, engine_cfg, true);
    if (!engine_res.isOk())
        faspFatal("bench: engine create failed: %s",
                  engine_res.status().toString().c_str());
    ownEngine_ = std::move(*engine_res);
    engine_ = ownEngine_.get();
}

void
BenchPoint::startMeasuring()
{
    if (config_.attachChecker)
        device_.setChecker(&checker_);
    device_.invalidateTagCache();
    device_.resetStats();
    engine_->resetStats();
    if (auto *fasp = dynamic_cast<core::FaspEngine *>(engine_))
        fasp->pcas().resetStats();
    counters0_ = EngineCounters::of(*engine_);
    window_.start();
}

void
BenchPoint::stopMeasuring(BenchResult &result)
{
    window_.stop();
    if (config_.attachChecker) {
        device_.setChecker(nullptr);
        result.checkerViolations = checker_.report().total();
    }
    if (obs::enabled()) {
        obs::PhaseLedger::global().fold(
            core::engineKindName(config_.kind), window_);
        foldCounters(*engine_, counters0_);
    }
    result.window = window_;
    result.pmStats = device_.stats();
    result.counters = EngineCounters::of(*engine_);
}

BenchResult
BenchPoint::run(btree::BTree &tree)
{
    const BenchConfig &config = config_;
    FASP_ASSERT(config.clients >= 1);
    std::vector<std::uint64_t> committed;
    if (config.ycsbMix != 0)
        committed = preload(*engine_, tree, config);

    std::vector<ClientResult> clients(config.clients);
    std::vector<std::thread> workers;
    workers.reserve(config.clients);
    startMeasuring();
    auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < config.clients; ++c) {
        workers.emplace_back(runClient, std::ref(*engine_), tree,
                             std::cref(config), c, std::ref(clients[c]));
    }
    for (std::thread &w : workers)
        w.join();
    auto wall_end = std::chrono::steady_clock::now();

    BenchResult result;
    stopMeasuring(result);
    result.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    bool overlapping = config.kind == EngineKind::Fast ||
                       config.kind == EngineKind::Fash;
    std::uint64_t makespan = 0;
    std::vector<std::uint64_t> op_ns;
    for (const ClientResult &c : clients) {
        result.ops += c.ops;
        for (std::size_t i = 0; i < c.opCounts.size(); ++i)
            result.opCounts[i] += c.opCounts[i];
        result.scannedRecords += c.scanned;
        result.retries += c.retries;
        makespan = overlapping ? std::max(makespan, c.activeNs)
                               : makespan + c.activeNs;
        op_ns.insert(op_ns.end(), c.opNs.begin(), c.opNs.end());
        committed.insert(committed.end(), c.keys.begin(), c.keys.end());
    }
    result.modeledSeconds = static_cast<double>(makespan) * 1e-9;
    if (!op_ns.empty()) {
        std::sort(op_ns.begin(), op_ns.end());
        std::uint64_t sum = 0;
        for (std::uint64_t ns : op_ns)
            sum += ns;
        result.meanOpUs = static_cast<double>(sum) /
                          static_cast<double>(op_ns.size()) * 1e-3;
        result.p50OpUs =
            static_cast<double>(op_ns[op_ns.size() / 2]) * 1e-3;
        result.p99OpUs =
            static_cast<double>(op_ns[op_ns.size() * 99 / 100]) * 1e-3;
    }

    // Verification reads with obs off, so it bills nothing to the
    // export (the window and stats are already copied).
    const bool obs_on = obs::enabled();
    obs::setEnabled(false);
    verify(*engine_, tree, committed,
           config.ycsbMix == 0
               ? std::optional<std::uint64_t>(committed.size())
               : std::nullopt);
    obs::setEnabled(obs_on);
    return result;
}

BenchResult
runBench(const BenchConfig &config)
{
    BenchPoint point(
        config,
        autoDeviceSize(config.clients *
                           (config.preloadPerClient +
                            config.opsPerClient * config.recordsPerTxn),
                       config.recordSize));
    auto tree = point.engine().createTree(2);
    if (!tree.isOk())
        faspFatal("bench: tree create failed");
    return point.run(*tree);
}

SqlBenchResult
runSqlBench(const SqlBenchConfig &config)
{
    constexpr std::size_t kPayloadBytes = 100;
    BenchConfig point_cfg;
    point_cfg.kind = config.kind;
    point_cfg.latency = config.latency;
    BenchPoint point(point_cfg,
                     std::max<std::size_t>(
                         128u << 20,
                         4 * config.numOps * (kPayloadBytes + 128)),
                     /*sql=*/true);
    pm::PmDevice &device = point.device();
    db::Database &database = point.database();

    auto created = database.exec(
        "CREATE TABLE kv (id INTEGER PRIMARY KEY, payload TEXT)");
    if (!created.isOk())
        faspFatal("bench: create table failed");

    // Payload text reused across statements (sized once).
    std::string payload(kPayloadBytes, 'x');

    // With --metrics, collect a per-op latency distribution.
    obs::Histogram *op_hist = nullptr;
    if (obs::enabled()) {
        op_hist = &obs::MetricsRegistry::global().histogram(
            std::string("bench.sql_op_ns.") +
            core::engineKindName(config.kind));
    }

    point.startMeasuring();
    workload::MixedWorkload workload(config.mix, kSeed);
    SqlBenchResult result;
    auto bench_start = std::chrono::steady_clock::now();

    std::string sql;
    for (std::size_t i = 0; i < config.numOps; ++i) {
        workload::Op op = workload.next();
        sql.clear();
        switch (op.type) {
          case workload::OpType::Insert:
            sql = "INSERT INTO kv VALUES (" +
                  std::to_string(op.key) + ", '" + payload + "')";
            break;
          case workload::OpType::Update:
            sql = "UPDATE kv SET payload = '" + payload +
                  "' WHERE id = " + std::to_string(op.key);
            break;
          case workload::OpType::Delete:
            sql = "DELETE FROM kv WHERE id = " +
                  std::to_string(op.key);
            break;
          case workload::OpType::Lookup:
            sql = "SELECT payload FROM kv WHERE id = " +
                  std::to_string(op.key);
            break;
        }

        // The statement runs on this thread, whose ledger is billed
        // every modelled ns the device counts.
        std::uint64_t model_before = pm::threadModelNs();
        auto op_start = std::chrono::steady_clock::now();
        auto rs = database.exec(sql);
        auto op_end = std::chrono::steady_clock::now();
        if (!rs.isOk())
            faspFatal("bench sql failed: %s (%s)",
                      rs.status().toString().c_str(), sql.c_str());
        double ns =
            std::chrono::duration<double, std::nano>(op_end - op_start)
                .count() +
            static_cast<double>(pm::threadModelNs() - model_before);
        if (op_hist)
            op_hist->record(static_cast<std::uint64_t>(ns));

        switch (op.type) {
          case workload::OpType::Insert:
            result.insertNs += ns;
            result.inserts++;
            break;
          case workload::OpType::Update:
            result.updateNs += ns;
            result.updates++;
            break;
          case workload::OpType::Delete:
            result.deleteNs += ns;
            result.deletes++;
            break;
          case workload::OpType::Lookup:
            result.lookupNs += ns;
            result.lookups++;
            break;
        }
    }
    auto bench_end = std::chrono::steady_clock::now();

    if (result.inserts)
        result.insertNs /= static_cast<double>(result.inserts);
    if (result.updates)
        result.updateNs /= static_cast<double>(result.updates);
    if (result.deletes)
        result.deleteNs /= static_cast<double>(result.deletes);
    if (result.lookups)
        result.lookupNs /= static_cast<double>(result.lookups);

    double total_seconds =
        std::chrono::duration<double>(bench_end - bench_start).count() +
        static_cast<double>(device.stats().modelNs) * 1e-9;
    result.opsPerSecond =
        static_cast<double>(config.numOps) / total_seconds;
    BenchResult measured;
    point.stopMeasuring(measured);
    return result;
}

} // namespace fasp::benchutil
