/**
 * @file
 * Exhaustive crash-injection property tests (paper Section 4.4).
 *
 * For every engine and crash policy, a deterministic workload runs
 * with a crash injected at persistence event k, for EVERY k in the
 * crash window. After each crash the database is re-opened (running
 * the engine's recovery) and checked for:
 *
 *   1. durability  — every transaction that reported commit success
 *                    before the crash is fully present;
 *   2. atomicity   — the single in-flight operation is all-or-nothing
 *                    (for the multi-record transaction: all 5 keys or
 *                    none);
 *   3. consistency — full B-tree structural integrity.
 *
 * Crash policies (see pm::CrashPolicy): DropAll is a clean power cut;
 * RandomLines persists an arbitrary subset of dirty lines (modelling
 * uncontrolled cache eviction before the failure); TornLines persists
 * arbitrary 8-byte words (PM whose atomic unit is 8 bytes). The
 * paper's RTM in-place commit assumes cache-line write atomicity
 * (Section 3.2); this FAST's in-place commit does not — it stages
 * the new slot array in the leaf's second buffer and publishes it with
 * one 8-byte PCAS of header word 0 (DESIGN.md §14) — so FAST runs
 * under TornLines like FASH, which the paper offers exactly for
 * sub-cache-line atomic units.
 *
 * The ForcedFallback cases pin FAST to its slot-header-log fallback
 * (the PCAS publish is given a one-attempt retry budget with certain
 * injected failure, paper §3.2 footnote 1), so
 * the sweep walks every crash point of the
 * multi-page logged commit — including the CoW-defragmentation and
 * leaf-split window ops — under adversarial partial-line persistence.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "core/engine.h"
#include "core/fasp_engine.h"
#include "forensics.h"
#include "obs/flight_recorder.h"
#include "pm/device.h"
#include "support/checker_guard.h"

namespace fasp::core {
namespace {

using btree::BTree;
using pm::CrashPolicy;
using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;

std::vector<std::uint8_t>
value(std::uint64_t seed, std::size_t len = 48)
{
    std::vector<std::uint8_t> out(len);
    Rng rng(seed * 2654435761u + 17);
    rng.fillBytes(out.data(), out.size());
    return out;
}

std::span<const std::uint8_t>
asSpan(const std::vector<std::uint8_t> &v)
{
    return std::span<const std::uint8_t>(v);
}

/** Reference model of committed database contents. */
using Model = std::map<std::uint64_t, std::vector<std::uint8_t>>;

/**
 * One operation of the crash-window workload: how to run it and what
 * outcomes are legal if it was in flight when the crash hit.
 */
struct WindowOp
{
    enum Kind {
        MultiInsert,
        Update,
        Erase,
        SingleInsert,
        FatUpdate //!< update that grows the value well past its extent
    } kind;
    std::uint64_t key; //!< base key

    static constexpr std::size_t kFatLen = 400;

    Status
    run(Engine &engine, BTree &tree) const
    {
        switch (kind) {
          case MultiInsert: {
            auto tx = engine.begin();
            for (std::uint64_t i = 0; i < 5; ++i) {
                auto v = value(key + i);
                Status status =
                    tree.insert(tx->pageIO(), key + i, asSpan(v));
                if (!status.isOk()) {
                    tx->rollback();
                    return status;
                }
            }
            return tx->commit();
          }
          case Update:
            return engine.update(tree, key, asSpan(value(key + 7000)));
          case Erase:
            return engine.erase(tree, key);
          case SingleInsert:
            return engine.insert(tree, key, asSpan(value(key)));
          case FatUpdate:
            return engine.update(tree, key,
                                 asSpan(value(key + 9000, kFatLen)));
        }
        return statusInvalid("bad op");
    }

    /** Fold a completed op into the committed model. */
    void
    apply(Model &model) const
    {
        switch (kind) {
          case MultiInsert:
            for (std::uint64_t i = 0; i < 5; ++i)
                model[key + i] = value(key + i);
            break;
          case Update:
            model[key] = value(key + 7000);
            break;
          case Erase:
            model.erase(key);
            break;
          case SingleInsert:
            model[key] = value(key);
            break;
          case FatUpdate:
            model[key] = value(key + 9000, kFatLen);
            break;
        }
    }

    /**
     * Check the all-or-nothing property for this op when it was in
     * flight: the database must equal either the before-model or the
     * after-model, with no third state.
     */
    void
    checkInFlight(Engine &engine, BTree &tree, const Model &before,
                  std::uint64_t event) const
    {
        Model after = before;
        apply(after);

        // Decide which world we are in by probing one affected key.
        std::vector<std::uint8_t> out;
        Status probe = engine.get(tree, key, out);
        const Model *expect = nullptr;
        auto before_it = before.find(key);
        auto after_it = after.find(key);
        if (probe.isOk()) {
            if (after_it != after.end() && out == after_it->second)
                expect = &after;
            if (!expect && before_it != before.end() &&
                out == before_it->second)
                expect = &before;
            ASSERT_NE(expect, nullptr)
                << "key " << key << " has a third-state value at event "
                << event;
        } else {
            if (after_it == after.end())
                expect = &after;
            else if (before_it == before.end())
                expect = &before;
            ASSERT_NE(expect, nullptr)
                << "key " << key << " missing in both worlds at event "
                << event;
        }
        verifyModel(engine, tree, *expect, event);
    }

    static void
    verifyModel(Engine &engine, BTree &tree, const Model &model,
                std::uint64_t event)
    {
        auto tx = engine.begin();
        Status integrity = tree.checkIntegrity(tx->pageIO());
        ASSERT_TRUE(integrity.isOk())
            << "integrity violated at event " << event << ": "
            << integrity.toString();
        std::size_t scanned = 0;
        ASSERT_TRUE(
            tree.scan(tx->pageIO(), 0, ~std::uint64_t{0},
                      [&](std::uint64_t k,
                          std::span<const std::uint8_t> v) {
                          auto it = model.find(k);
                          EXPECT_NE(it, model.end())
                              << "phantom key " << k << " at event "
                              << event;
                          if (it != model.end()) {
                              EXPECT_TRUE(std::equal(
                                  v.begin(), v.end(),
                                  it->second.begin(),
                                  it->second.end()))
                                  << "value mismatch for " << k
                                  << " at event " << event;
                          }
                          ++scanned;
                          return true;
                      })
                .isOk());
        EXPECT_EQ(scanned, model.size())
            << "lost keys at event " << event;
        tx->rollback();
    }
};

// Local helper: fail the test but keep the sweep moving.
#define ASSERT_TRUE_OR_RETURN(expr)                                        \
    if (!(expr).isOk()) {                                                  \
        ADD_FAILURE() << (expr).status().toString();                       \
        return true;                                                       \
    }

struct SweepCase
{
    EngineKind kind;
    CrashPolicy policy;
    /** Force FAST's PCAS to fail every attempt so each commit takes
     *  the slot-header-log fallback path. */
    bool forceFallback = false;
    /** Swap the default window for the delete/defrag-pressure one
     *  (erase + grown-value churn forcing CoW defragmentation). */
    bool deletePressure = false;
};

class CrashSweepTest : public ::testing::TestWithParam<SweepCase>
{
  protected:
    static constexpr std::size_t kSeedKeys = 60;

    // The sweep runs with the persistent flight recorder ON: its
    // appends go through the same crash-injected, checker-guarded
    // device as real data, and the forensics assertion below requires
    // the timeline to survive every crash point.
    void SetUp() override { obs::FlightRecorder::setEnabled(true); }
    void TearDown() override { obs::FlightRecorder::setEnabled(false); }

    /**
     * The tentpole acceptance check: from the durable image ALONE
     * (before recovery has run), fasp-forensics must identify the
     * operation the crash interrupted.
     *
     * Three outcomes are legal at a crash point:
     *   - an unresolved OpBegin names exactly the in-flight txid;
     *   - no OpBegin for that txid is durable — the crash landed
     *     inside the OpBegin append itself, before which no op
     *     persistence can have happened (append is store+flush+fence);
     *   - the txid's CommitPoint record is durable — the crash landed
     *     after the transaction was already committed.
     */
    void
    assertForensics(const pm::PmDevice &device,
                    std::uint64_t expected_txid, std::uint64_t k) const
    {
        forensics::CrashReport report = forensics::analyzeImage(
            device.durableData(), device.size());
        ASSERT_TRUE(report.sb.present && report.sb.crcOk)
            << "superblock undecodable at event " << k;
        ASSERT_TRUE(report.timeline.headerOk)
            << "flight-recorder header undecodable at event " << k;

        if (report.inflight.found) {
            EXPECT_EQ(report.inflight.txid, expected_txid)
                << "forensics misidentified the in-flight op at event "
                << k;
            return;
        }
        bool begin_durable = false;
        for (const obs::FlightRecord &rec : report.timeline.records) {
            if (rec.type == obs::FlightEventType::OpBegin &&
                rec.txid == expected_txid) {
                begin_durable = true;
            }
        }
        if (begin_durable) {
            EXPECT_EQ(report.inflight.lastCommittedTxid, expected_txid)
                << "tx " << expected_txid
                << " began and neither committed nor stayed open at "
                << "event " << k;
        }
    }

    /** Optional CI hook: dump every Nth crash image so the
     *  fasp-forensics CLI can be run over real artifacts
     *  (FASP_CRASH_SWEEP_DUMP_DIR + FASP_CRASH_SWEEP_DUMP_EVERY). */
    void
    maybeDumpImage(const pm::PmDevice &device, std::uint64_t k) const
    {
        const char *dir = std::getenv("FASP_CRASH_SWEEP_DUMP_DIR");
        if (dir == nullptr)
            return;
        std::uint64_t every = 50;
        if (const char *n = std::getenv("FASP_CRASH_SWEEP_DUMP_EVERY"))
            every = std::strtoull(n, nullptr, 10);
        if (every == 0 || k % every != 0)
            return;
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = info->name(); // "TestName/ParamName"
        for (char &c : name) {
            if (c == '/')
                c = '_';
        }
        std::string path = std::string(dir) + "/" + name + "_k" +
                           std::to_string(k) + ".img";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(device.durableData()),
                  static_cast<std::streamsize>(device.size()));
    }

    EngineConfig
    engineConfig() const
    {
        EngineConfig cfg;
        cfg.kind = GetParam().kind;
        cfg.format.logLen = 1u << 20;
        cfg.volatileCachePages = 512;
        if (GetParam().forceFallback) {
            cfg.pcas.failProbability = 1.0;
            cfg.pcas.maxRetries = 1;
        }
        return cfg;
    }

    std::unique_ptr<PmDevice>
    makeDevice(std::uint64_t crash_seed) const
    {
        PmConfig cfg;
        cfg.size = 6u << 20;
        cfg.mode = PmMode::CacheSim;
        cfg.crashPolicy = GetParam().policy;
        cfg.crashSeed = crash_seed;
        return std::make_unique<PmDevice>(cfg);
    }

    static std::vector<WindowOp>
    windowOps()
    {
        // Chosen to exercise every commit path: an in-place-eligible
        // single insert, a multi-page transaction, an update, a
        // delete, and inserts that force a leaf split (the seed fills
        // leaves close to their capacity).
        return {
            {WindowOp::SingleInsert, 500},
            {WindowOp::MultiInsert, 1000},
            {WindowOp::Update, 5},
            {WindowOp::Erase, 6},
            {WindowOp::SingleInsert, 501}, // fills the leaf exactly
            {WindowOp::SingleInsert, 502}, // forces CoW defrag
            {WindowOp::SingleInsert, 503}, // forces a split
        };
    }

    static std::vector<WindowOp>
    deletePressureOps()
    {
        // Delete/reinsert-larger churn (ISSUE satellite, mirrors the
        // soak's DeleteDefragStream at every-crash-point granularity).
        // Each FatUpdate appends a grown copy of the record and frees
        // the old extent as an interior hole, so the leaf's contiguous
        // gap drains while fragmented free space accumulates: within a
        // few ops checkFit answers NeedsDefrag and a commit carries a
        // full CoW defragmentation (§4.3) inside the crash window. All
        // churn keys sit in the high end of the seed range so they
        // share the rightmost — fullest — leaf: FAST's 26-slot leaf
        // cap (kMaxInPlaceSlots) means only a leaf of large records
        // (the 120-byte delete-pressure seed) can ever be space-tight
        // enough to fragment.
        return {
            {WindowOp::Erase, 58},      {WindowOp::Erase, 56},
            {WindowOp::Erase, 54},      {WindowOp::FatUpdate, 60},
            {WindowOp::FatUpdate, 59},  {WindowOp::FatUpdate, 57},
            {WindowOp::FatUpdate, 55},  {WindowOp::FatUpdate, 53},
            {WindowOp::FatUpdate, 52},  {WindowOp::FatUpdate, 51},
            {WindowOp::SingleInsert, 58}, // reinsert into churned leaf
            {WindowOp::Erase, 55},      {WindowOp::FatUpdate, 50},
        };
    }

    /** Scan the durable flight-recorder timeline for a Defrag record —
     *  the delete-pressure window must actually have taken the CoW
     *  defragmentation path, or the sweep is not covering it. */
    static bool
    sawDefrag(const pm::PmDevice &device)
    {
        forensics::CrashReport report = forensics::analyzeImage(
            device.durableData(), device.size());
        if (!report.timeline.headerOk)
            return false;
        for (const obs::FlightRecord &rec : report.timeline.records) {
            if (rec.type == obs::FlightEventType::Defrag)
                return true;
        }
        return false;
    }

    /**
     * Run the whole workload with a crash injected @p k events after
     * the window starts.
     * @return true if the run finished with no crash (sweep is done).
     */
    bool
    runOnce(std::uint64_t k)
    {
        auto device = makeDevice(/*crash_seed=*/k * 7919 + 13);
        // Every store/flush/fence of the whole run — format, workload,
        // crash, recovery, verification — is ordering-checked. Declared
        // after the device and before the engines so its destructor
        // sweeps for unflushed lines once the engines are gone.
        testsupport::PmCheckerGuard guard(*device);
        auto engine_res =
            Engine::create(*device, engineConfig(), /*format=*/true);
        if (!engine_res.isOk()) {
            ADD_FAILURE() << engine_res.status().toString();
            return true;
        }
        std::unique_ptr<Engine> engine = std::move(*engine_res);

        auto tree_res = engine->createTree(1);
        if (!tree_res.isOk()) {
            ADD_FAILURE() << tree_res.status().toString();
            return true;
        }
        BTree tree = *tree_res;

        Model model;
        // The delete-pressure seed uses 120-byte values so a slot-cap
        // bounded FAST leaf is near space capacity, not just slot
        // capacity — a precondition for fragmentation to force defrag.
        std::size_t seed_len = GetParam().deletePressure ? 120 : 48;
        for (std::uint64_t key = 1; key <= kSeedKeys; ++key) {
            auto v = value(key, seed_len);
            Status status = engine->insert(tree, key, asSpan(v));
            if (!status.isOk()) {
                ADD_FAILURE() << status.toString();
                return true;
            }
            model[key] = v;
        }
        if (GetParam().forceFallback) {
            // The knob must actually detour the in-place-eligible seed
            // commits through the log, or the sweep proves nothing.
            auto *fasp = dynamic_cast<FaspEngine *>(engine.get());
            if (fasp == nullptr) {
                ADD_FAILURE() << "forced fallback needs a FAST engine";
                return true;
            }
            EXPECT_GT(engine->stats().pcasFallbacks.load(), 0u);
            EXPECT_EQ(engine->stats().inPlaceCommits.load(), 0u);
        }

        // Arm the injector relative to the current event count.
        pm::PointCrashInjector injector(device->eventCount() + k);
        device->setCrashInjector(&injector);

        auto ops = GetParam().deletePressure ? deletePressureOps()
                                             : windowOps();
        std::optional<std::size_t> inflight;
        bool crashed = false;
        std::uint64_t expected_txid = 0;
        std::size_t op_index = 0;
        try {
            for (; op_index < ops.size(); ++op_index) {
                Status status = ops[op_index].run(*engine, tree);
                if (!status.isOk()) {
                    ADD_FAILURE() << "op " << op_index << " failed: "
                                  << status.toString();
                    return true;
                }
                ops[op_index].apply(model);
            }
        } catch (const pm::CrashException &) {
            crashed = true;
            inflight = op_index;
            // Txids are allocated 1:1 with begins, so the in-flight
            // transaction's id is the begin count at the crash.
            expected_txid = engine->stats().txBegun.load();
        }
        device->setCrashInjector(nullptr);
        if (!crashed) {
            if (GetParam().deletePressure) {
                EXPECT_TRUE(sawDefrag(*device))
                    << "delete-pressure window never defragmented";
            }
            return true; // k is beyond the window: sweep complete
        }

        // Destroy the crashed engine (must not touch the device) and,
        // BEFORE recovery mutates anything, run the offline forensics
        // over the durable image exactly as the CLI would see it.
        engine.reset();
        assertForensics(*device, expected_txid, k);
        maybeDumpImage(*device, k);
        device->reviveAfterCrash();
        auto recovered =
            Engine::create(*device, engineConfig(), /*format=*/false);
        ASSERT_TRUE_OR_RETURN(recovered);
        std::unique_ptr<Engine> engine2 = std::move(*recovered);
        auto tree2_res = BTreeHandleFor(*engine2);
        ASSERT_TRUE_OR_RETURN(tree2_res);
        BTree tree2 = *tree2_res;

        if (inflight) {
            ops[*inflight].checkInFlight(*engine2, tree2, model, k);
        } else {
            WindowOp::verifyModel(*engine2, tree2, model, k);
        }
        return false;
    }

  private:
    static Result<BTree>
    BTreeHandleFor(Engine &engine)
    {
        auto tx = engine.begin();
        auto tree = BTree::open(tx->pageIO(), 1);
        tx->rollback();
        return tree;
    }
};

TEST_P(CrashSweepTest, EveryCrashPointRecoversConsistently)
{
    std::uint64_t k = 0;
    for (;; ++k) {
        if (runOnce(k))
            break;
        if (HasFatalFailure() || k > 200000) {
            ADD_FAILURE() << "sweep aborted at k=" << k;
            break;
        }
    }
    RecordProperty("crash_points", static_cast<int>(k));
    EXPECT_GT(k, 50u) << "window too small to be meaningful";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CrashSweepTest,
    ::testing::Values(
        SweepCase{EngineKind::Fast, CrashPolicy::DropAll},
        SweepCase{EngineKind::Fast, CrashPolicy::RandomLines},
        SweepCase{EngineKind::Fast, CrashPolicy::TornLines},
        SweepCase{EngineKind::Fast, CrashPolicy::DropAll, true},
        SweepCase{EngineKind::Fast, CrashPolicy::RandomLines, true},
        SweepCase{EngineKind::Fast, CrashPolicy::TornLines, true},
        SweepCase{EngineKind::Fash, CrashPolicy::DropAll},
        SweepCase{EngineKind::Fash, CrashPolicy::RandomLines},
        SweepCase{EngineKind::Fash, CrashPolicy::TornLines},
        SweepCase{EngineKind::Nvwal, CrashPolicy::DropAll},
        SweepCase{EngineKind::Nvwal, CrashPolicy::RandomLines},
        SweepCase{EngineKind::Nvwal, CrashPolicy::TornLines},
        SweepCase{EngineKind::LegacyWal, CrashPolicy::DropAll},
        SweepCase{EngineKind::LegacyWal, CrashPolicy::RandomLines},
        SweepCase{EngineKind::Journal, CrashPolicy::DropAll},
        SweepCase{EngineKind::Journal, CrashPolicy::RandomLines},
        // Delete/defrag-pressure windows. FAST's PCAS in-place commit
        // publishes one 8-byte word, so it runs under TornLines both
        // in place and with the forced log fallback.
        SweepCase{EngineKind::Fast, CrashPolicy::DropAll, false, true},
        SweepCase{EngineKind::Fast, CrashPolicy::TornLines, false, true},
        SweepCase{EngineKind::Fast, CrashPolicy::TornLines, true, true},
        SweepCase{EngineKind::Fash, CrashPolicy::TornLines, false,
                  true}),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        std::string policy;
        switch (info.param.policy) {
          case CrashPolicy::DropAll: policy = "DropAll"; break;
          case CrashPolicy::RandomLines: policy = "RandomLines"; break;
          case CrashPolicy::TornLines: policy = "TornLines"; break;
        }
        return std::string(engineKindName(info.param.kind)) + "_" +
               policy +
               (info.param.forceFallback ? "_ForcedFallback" : "") +
               (info.param.deletePressure ? "_DeletePressure" : "");
    });

} // namespace
} // namespace fasp::core
