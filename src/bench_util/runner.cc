#include "bench_util/runner.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "btree/btree.h"
#include "core/fasp_engine.h"
#include "common/logging.h"
#include "db/database.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace fasp::benchutil {

using core::Engine;
using core::EngineConfig;
using core::EngineKind;
using pm::Component;

double
BenchResult::perTxnNs(Component comp) const
{
    if (txns == 0)
        return 0;
    return static_cast<double>(tracker.totalNs(comp)) /
           static_cast<double>(txns);
}

double
BenchResult::flushesPerTxn() const
{
    if (txns == 0)
        return 0;
    return static_cast<double>(tracker.grandTotalFlushes()) /
           static_cast<double>(txns);
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
        c.rtm = fasp->rtm().stats();
        c.commitViaPcas = fasp->commitViaPcas();
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
    // Change of one atomic stats field over the measured phase.
    auto d = [](const auto &after, const auto &base) {
        return after.load(std::memory_order_relaxed) -
               base.load(std::memory_order_relaxed);
    };
    const core::EngineStats &e = now.engine, &e0 = before.engine;
    const pm::PcasStats &p = now.pcas, &p0 = before.pcas;
    const htm::RtmStats &r = now.rtm, &r0 = before.rtm;

    add("core.tx.commits", d(e.txCommitted, e0.txCommitted));
    add("core.tx.rollbacks", d(e.txRolledBack, e0.txRolledBack));
    std::uint64_t latch_conflicts =
        now.latches.conflicts - before.latches.conflicts;
    add("core.tx.latch_conflicts", latch_conflicts);
    add("pager.latch.conflicts", latch_conflicts);
    add("pager.latch.shared_acquires",
        now.latches.sharedAcquires - before.latches.sharedAcquires);
    add("pager.latch.exclusive_acquires",
        now.latches.exclusiveAcquires - before.latches.exclusiveAcquires);
    add("pager.latch.upgrades",
        now.latches.upgrades - before.latches.upgrades);

    std::uint64_t pcas_fallbacks = d(e.pcasFallbacks, e0.pcasFallbacks);
    add("core.tx.inplace_fallbacks",
        d(r.fallbacks, r0.fallbacks) + pcas_fallbacks);
    if (now.commitViaPcas)
        add("core.pcas.commits", d(e.inPlaceCommits, e0.inPlaceCommits));
    add("core.pcas.fallbacks", pcas_fallbacks);
    add("core.pcas.conflicts", d(p.casConflicts, p0.casConflicts));
    add("core.pcas.exhausted", d(p.casExhausted, p0.casExhausted));

    add("htm.commits", d(r.commits, r0.commits));
    add("htm.fallbacks", d(r.fallbacks, r0.fallbacks));
    add("htm.aborts.explicit", d(r.abortsExplicit, r0.abortsExplicit));
    add("htm.aborts.injected", d(r.abortsInjected, r0.abortsInjected));
    add("htm.aborts.contention",
        d(r.abortsContention, r0.abortsContention));
    add("htm.aborts.capacity", d(r.abortsCapacity, r0.abortsCapacity));
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

BenchArgs
parseImpl(int &argc, char **argv, bool strip)
{
    BenchArgs args;
    int out = 1;
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
        if (matched) {
            i += consumed;
            continue;
        }
        if (strip)
            argv[out++] = argv[i];
        ++i;
    }
    if (strip) {
        argc = out;
        argv[argc] = nullptr;
    }
    if (args.numTxns == 0)
        args.numTxns = 1;
    return args;
}

} // namespace

BenchArgs
BenchArgs::parse(int argc, char **argv)
{
    return parseImpl(argc, argv, false);
}

BenchArgs
BenchArgs::parseAndStrip(int &argc, char **argv)
{
    return parseImpl(argc, argv, true);
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

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::size_t
autoDeviceSize(const BenchConfig &config)
{
    std::size_t data = config.numTxns * config.recordsPerTxn *
                       (config.recordSize + 96);
    std::size_t size = 3 * data + (48u << 20);
    // Round up to 1 MiB.
    size = (size + (1u << 20) - 1) & ~((std::size_t{1} << 20) - 1);
    return size;
}

} // namespace

BenchResult
runInsertBench(const BenchConfig &config)
{
    pm::PmConfig pm_cfg;
    pm_cfg.size = config.deviceSize ? config.deviceSize
                                    : autoDeviceSize(config);
    pm_cfg.mode = pm::PmMode::Direct;
    pm_cfg.latency = config.latency;
    pm_cfg.useClwb = config.useClwb;
    pm::PmDevice device(pm_cfg);

    EngineConfig engine_cfg;
    engine_cfg.kind = config.kind;
    engine_cfg.rtm = config.rtm;
    engine_cfg.inPlaceCommitVia = config.commitVia;
    engine_cfg.pcas = config.pcas;
    engine_cfg.format.logLen = 16u << 20;
    auto engine_res = Engine::create(device, engine_cfg, true);
    if (!engine_res.isOk())
        faspFatal("bench: engine create failed: %s",
                  engine_res.status().toString().c_str());
    std::unique_ptr<Engine> engine = std::move(*engine_res);

    auto tree_res = engine->createTree(2);
    if (!tree_res.isOk())
        faspFatal("bench: tree create failed");
    btree::BTree tree = *tree_res;

    // Measure from a clean slate (the setup above is not counted).
    BenchResult result;
    device.invalidateTagCache();
    device.stats().reset();
    engine->stats().reset();
    const EngineCounters counters0 = EngineCounters::of(*engine);

    // With --metrics, collect a per-transaction latency distribution.
    obs::Histogram *txn_hist = nullptr;
    if (obs::enabled()) {
        txn_hist = &obs::MetricsRegistry::global().histogram(
            std::string("bench.txn_ns.") +
            core::engineKindName(config.kind));
    }

    workload::KeyStream keys(config.keys, config.seed);
    workload::ValueGen values =
        workload::ValueGen::fixed(config.recordSize, config.seed + 1);
    std::vector<std::uint8_t> value;

    result.tracker.start();
    auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < config.numTxns; ++i) {
        std::uint64_t txn_t0 = 0;
        std::uint64_t txn_m0 = 0;
        if (txn_hist) {
            txn_t0 = nowNs();
            txn_m0 = pm::threadModelNs();
        }
        auto tx = engine->begin();
        for (std::size_t j = 0; j < config.recordsPerTxn; ++j) {
            values.next(value);
            Status status = tree.insert(
                tx->pageIO(), keys.next(),
                std::span<const std::uint8_t>(value));
            if (status.code() == StatusCode::AlreadyExists) {
                --j; // 64-bit collision: vanishingly rare, retry
                continue;
            }
            if (!status.isOk())
                faspFatal("bench insert failed: %s",
                          status.toString().c_str());
        }
        Status status = tx->commit();
        if (!status.isOk())
            faspFatal("bench commit failed: %s",
                      status.toString().c_str());
        if (txn_hist) {
            txn_hist->record((nowNs() - txn_t0) +
                             (pm::threadModelNs() - txn_m0));
        }
    }
    auto wall_end = std::chrono::steady_clock::now();
    result.tracker.stop();

    result.txns = config.numTxns;
    result.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    result.pmStats = device.stats();
    result.engineStats = engine->stats();
    if (auto *fasp = dynamic_cast<core::FaspEngine *>(engine.get())) {
        result.rtmStats = fasp->rtm().stats();
        result.pcasStats = fasp->pcas().stats();
    }
    if (obs::enabled()) {
        obs::PhaseLedger::global().fold(
            core::engineKindName(config.kind), result.tracker);
        foldCounters(*engine, counters0);
    }
    return result;
}

SqlBenchResult
runSqlBench(const SqlBenchConfig &config)
{
    pm::PmConfig pm_cfg;
    pm_cfg.size = std::max<std::size_t>(
        128u << 20, 4 * config.numOps * (config.valueSize + 128));
    pm_cfg.mode = pm::PmMode::Direct;
    pm_cfg.latency = config.latency;
    pm::PmDevice device(pm_cfg);

    EngineConfig engine_cfg;
    engine_cfg.kind = config.kind;
    engine_cfg.format.logLen = 16u << 20;
    auto db_res = db::Database::open(device, engine_cfg, true);
    if (!db_res.isOk())
        faspFatal("bench: database open failed: %s",
                  db_res.status().toString().c_str());
    auto database = std::move(*db_res);

    auto created = database->exec(
        "CREATE TABLE kv (id INTEGER PRIMARY KEY, payload TEXT)");
    if (!created.isOk())
        faspFatal("bench: create table failed");

    // Payload text reused across statements (sized once).
    std::string payload(config.valueSize, 'x');

    device.invalidateTagCache();
    const EngineCounters counters0 = EngineCounters::of(database->engine());

    // With --metrics, bill the ops' PM events to phases/sites through a
    // ledger window and collect a per-op latency distribution.
    pm::PhaseTracker window;
    obs::Histogram *op_hist = nullptr;
    if (obs::enabled()) {
        window.start();
        op_hist = &obs::MetricsRegistry::global().histogram(
            std::string("bench.sql_op_ns.") +
            core::engineKindName(config.kind));
    }

    workload::MixedWorkload workload(config.mix, config.seed);
    SqlBenchResult result;
    double model_total_start =
        static_cast<double>(device.stats().modelNs);
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

        std::uint64_t model_before = device.stats().modelNs;
        auto op_start = std::chrono::steady_clock::now();
        auto rs = database->exec(sql);
        auto op_end = std::chrono::steady_clock::now();
        if (!rs.isOk())
            faspFatal("bench sql failed: %s (%s)",
                      rs.status().toString().c_str(), sql.c_str());
        double ns =
            std::chrono::duration<double, std::nano>(op_end - op_start)
                .count() +
            static_cast<double>(device.stats().modelNs - model_before);
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
        (static_cast<double>(device.stats().modelNs) -
         model_total_start) *
            1e-9;
    result.opsPerSecond =
        static_cast<double>(config.numOps) / total_seconds;
    if (obs::enabled()) {
        window.stop();
        obs::PhaseLedger::global().fold(
            core::engineKindName(config.kind), window);
        foldCounters(database->engine(), counters0);
    }
    return result;
}

} // namespace fasp::benchutil
