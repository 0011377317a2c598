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

/** @p n single-record hash-index inserts, measured. */
BenchResult
runHashInsertBench(core::EngineKind kind, std::size_t n)
{
    BenchConfig config;
    config.kind = kind;
    BenchPoint point(config, std::max<std::size_t>(128u << 20, n * 256));
    core::Engine &engine = point.engine();
    {
        auto tx = engine.begin();
        auto created =
            btree::HashIndex::create(tx->pageIO(), 1, 128);
        if (!created.isOk())
            faspFatal("hash create failed: %s",
                      created.status().toString().c_str());
        if (!tx->commit().isOk())
            faspFatal("hash create commit failed");
    }
    btree::HashIndex index(1);

    point.startMeasuring();
    Rng rng(4);
    std::vector<std::uint8_t> value(64, 0x11);
    for (std::size_t i = 0; i < n; ++i) {
        auto tx = engine.begin();
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
    BenchResult result;
    point.stopMeasuring(result);
    result.ops = n;
    return result;
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
        config.opsPerClient = n;
        BenchResult btree_result = runBench(config);
        Groups groups = groupComponents(btree_result, kind);
        table.addRow({core::engineKindName(kind), "b+tree",
                      Table::fmt(groups.searchNs / 1000.0),
                      Table::fmt(groups.totalNs() / 1000.0),
                      Table::fmt(
                          btree_result.counters.engine.inPlaceCommits)});

        BenchResult hash = runHashInsertBench(kind, n);
        table.addRow(
            {core::engineKindName(kind), "hash",
             Table::fmt(hash.perTxnNs(Component::Search) / 1000.0),
             Table::fmt(static_cast<double>(hash.window.grandTotalNs()) /
                        static_cast<double>(n) / 1000.0),
             Table::fmt(hash.counters.engine.inPlaceCommits)});
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
