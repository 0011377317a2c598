/**
 * @file
 * Table D (ablation): the paper claims its persistent slotted-page
 * optimization serves "not only B+-trees ... but also other hash-based
 * indexes" (Section 2.2). This bench runs the same single-record
 * insert workload against the B+-tree and the HashIndex for the three
 * paper engines and reports per-transaction cost and in-place-commit
 * rates. Expected: the hash index enjoys the same in-place commit on
 * FAST (a bucket insert is a single-page header update), with cheaper
 * Search (no multi-level descent).
 */

#include <cstdio>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "btree/btree.h"
#include "btree/hash_index.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/engine.h"
#include "pm/device.h"

using namespace fasp;
using namespace fasp::benchutil;
using pm::Component;

namespace {

struct RunResult
{
    double searchUs;
    double totalUs;
    std::uint64_t inPlace;
};

RunResult
runHashInsertBench(core::EngineKind kind, std::size_t n)
{
    pm::PmConfig pm_cfg;
    pm_cfg.size = std::max<std::size_t>(128u << 20, n * 256);
    pm_cfg.latency = pm::LatencyModel::of(300, 300);
    pm::PmDevice device(pm_cfg);
    core::EngineConfig cfg;
    cfg.kind = kind;
    cfg.format.logLen = 16u << 20;
    auto engine = std::move(*core::Engine::create(device, cfg, true));
    {
        auto tx = engine->begin();
        auto created =
            btree::HashIndex::create(tx->pageIO(), 1, 128);
        if (!created.isOk())
            faspFatal("hash create failed: %s",
                      created.status().toString().c_str());
        if (!tx->commit().isOk())
            faspFatal("hash create commit failed");
    }
    btree::HashIndex index(1);

    pm::PhaseTracker tracker;
    tracker.start();
    device.invalidateTagCache();
    engine->stats().reset();

    Rng rng(4);
    std::vector<std::uint8_t> value(64, 0x11);
    for (std::size_t i = 0; i < n; ++i) {
        auto tx = engine->begin();
        Status status = index.insert(
            tx->pageIO(), rng.next() | 1,
            std::span<const std::uint8_t>(value));
        if (!status.isOk() &&
            status.code() != StatusCode::AlreadyExists) {
            faspFatal("hash insert failed: %s",
                      status.toString().c_str());
        }
        if (!tx->commit().isOk())
            faspFatal("hash commit failed");
    }
    tracker.stop();
    RunResult out;
    out.searchUs =
        static_cast<double>(tracker.totalNs(Component::Search)) /
        static_cast<double>(n) / 1000.0;
    out.totalUs = static_cast<double>(tracker.grandTotalNs()) /
                  static_cast<double>(n) / 1000.0;
    out.inPlace = engine->stats().inPlaceCommits;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    std::size_t n = args.numTxns;

    Table table({"engine", "index", "search(us)", "total(us)",
                 "in-place commits"});
    for (core::EngineKind kind : paperEngines()) {
        // B+-tree reference numbers via the shared harness.
        BenchConfig config;
        config.kind = kind;
        config.latency = pm::LatencyModel::of(300, 300);
        config.numTxns = n;
        BenchResult btree_result = runInsertBench(config);
        Groups groups = groupComponents(btree_result, kind);
        table.addRow({core::engineKindName(kind), "b+tree",
                      Table::fmt(groups.searchNs / 1000.0),
                      Table::fmt(groups.totalNs() / 1000.0),
                      Table::fmt(
                          btree_result.engineStats.inPlaceCommits)});

        RunResult hash = runHashInsertBench(kind, n);
        table.addRow({core::engineKindName(kind), "hash",
                      Table::fmt(hash.searchUs),
                      Table::fmt(hash.totalUs),
                      Table::fmt(hash.inPlace)});
    }
    std::string title =
        "Table D: slotted-page B+-tree vs slotted-page hash "
        "index, single-record inserts (300/300ns)";
    table.print(title);
    std::printf("\nexpected: both index types enjoy FAST's in-place "
                "commit (the paper's generality claim, §2.2); the "
                "hash index trades range queries for a flatter "
                "search path\n");

    JsonReport report(args.jsonPath, "tblD_hash_vs_btree");
    report.add(title, table);
    report.write();
    args.writeMetrics("tblD_hash_vs_btree");
    return 0;
}
