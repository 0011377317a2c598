/**
 * @file
 * Table B (ablation): on-demand copy-on-write defragmentation cost
 * under a fragmentation-heavy workload (paper §4.3 claims
 * defragmentation accounts for <0.02% of B-tree insertion time under
 * the insert-only workload; this bench also stresses it deliberately
 * with an update/delete-heavy mix over variable-size records).
 */

#include <cstdio>

#include "btree/btree.h"
#include "common/logging.h"
#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "core/engine.h"
#include "workload/workload.h"

using namespace fasp;
using namespace fasp::benchutil;
using pm::Component;

namespace {

/** Run an update/delete-heavy mixed workload and report defrag share. */
void
runFragmentationMix(core::EngineKind kind, std::size_t ops,
                    benchutil::Table &table)
{
    BenchConfig config;
    config.kind = kind;
    BenchPoint point(config, 256u << 20);
    core::Engine &engine = point.engine();
    auto tree = *engine.createTree(2);

    // Variable-size records + heavy updates/deletes fragment pages.
    workload::MixedWorkload::Mix mix{40, 35, 15};
    workload::MixedWorkload workload(mix, 7);
    workload::ValueGen values = workload::ValueGen::uniform(16, 400, 9);
    std::vector<std::uint8_t> value;

    point.startMeasuring();
    for (std::size_t i = 0; i < ops; ++i) {
        workload::Op op = workload.next();
        values.next(value);
        auto tx = engine.begin();
        Status status;
        switch (op.type) {
          case workload::OpType::Insert:
            status = tree.insert(tx->pageIO(), op.key,
                                 std::span<const std::uint8_t>(value));
            break;
          case workload::OpType::Update:
            status = tree.update(tx->pageIO(), op.key,
                                 std::span<const std::uint8_t>(value));
            break;
          case workload::OpType::Delete:
            status = tree.erase(tx->pageIO(), op.key);
            break;
          case workload::OpType::Lookup: {
            std::vector<std::uint8_t> out;
            status = tree.get(tx->pageIO(), op.key, out);
            break;
          }
        }
        if (!status.isOk() &&
            status.code() != StatusCode::NotFound &&
            status.code() != StatusCode::AlreadyExists) {
            faspFatal("fragmentation mix op failed: %s",
                      status.toString().c_str());
        }
        status = tx->commit();
        if (!status.isOk())
            faspFatal("commit failed");
    }
    BenchResult result;
    point.stopMeasuring(result);
    double defrag =
        static_cast<double>(result.window.totalNs(Component::Defrag));
    double total = static_cast<double>(result.window.grandTotalNs());
    table.addRow({core::engineKindName(kind), "frag-heavy mix",
                  Table::fmt(defrag / static_cast<double>(ops) /
                             1000.0, 4),
                  Table::fmt(100.0 * defrag / total, 4) + "%"});
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);

    Table table({"engine", "workload", "defrag(us/op)",
                 "defrag share of op time"});

    // (1) The paper's insert-only workload: defrag should be ~absent.
    for (core::EngineKind kind :
         {core::EngineKind::Fast, core::EngineKind::Fash}) {
        BenchConfig config;
        config.kind = kind;
        config.latency = pm::LatencyModel::of(300, 300);
        config.opsPerClient = args.numTxns;
        BenchResult result = runBench(config);
        Groups groups = groupComponents(result, kind);
        double defrag = result.perTxnNs(Component::Defrag);
        table.addRow({core::engineKindName(kind), "insert-only",
                      Table::fmt(defrag / 1000.0, 4),
                      Table::fmt(100.0 * defrag /
                                     (groups.totalNs() > 0
                                          ? groups.totalNs()
                                          : 1),
                                 4) +
                          "%"});
    }

    // (2) An adversarial fragmentation-heavy mix.
    for (core::EngineKind kind :
         {core::EngineKind::Fast, core::EngineKind::Fash}) {
        runFragmentationMix(kind, args.numTxns / 2, table);
    }

    std::string title =
        "Table B: copy-on-write defragmentation overhead";
    table.print(title);
    std::printf("\npaper claim: <0.02%% of insertion time under the "
                "insert workload; the frag-heavy mix shows the "
                "worst-case upper bound\n");

    JsonReport report(args.jsonPath, "tblB_defrag_overhead");
    report.add(title, table);
    report.write();
    args.writeMetrics("tblB_defrag_overhead");
    return 0;
}
