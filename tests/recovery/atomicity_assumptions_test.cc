/**
 * @file
 * Tests pinning down the paper's atomicity assumptions (Sections 1 and
 * 3.2):
 *
 *  - The paper's FAST publishes its in-place header with RTM and so
 *    requires failure-atomic cache-line writes. This FAST (DESIGN.md
 *    §14) stages the new slot array in the leaf's second buffer and
 *    publishes it with one 8-byte CAS of header word 0, so it needs no
 *    line atomicity: a torn-line (8-byte-atomic-only) adversary must
 *    never tear it, whether the commit appends, shifts the slot array,
 *    updates or deletes, and whichever buffer the leaf currently reads
 *    from.
 *
 *  - FASH, which the paper offers precisely "when the atomic write
 *    granularity for PM is smaller than the cache line size", survives
 *    the same adversary at every crash point (covered exhaustively in
 *    crash_sweep_test.cc; spot-checked here for the same scenario).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "core/engine.h"
#include "core/fasp_page_io.h"
#include "page/slotted_page.h"
#include "pm/device.h"
#include "support/checker_guard.h"

namespace fasp::core {
namespace {

using btree::BTree;
using pm::CrashPolicy;
using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;

/** One single-record commit inside the crash window. */
struct Step
{
    enum Kind { Insert, Update, Erase } kind;
    std::uint64_t key;
};

using Model = std::map<std::uint64_t, std::vector<std::uint8_t>>;

std::vector<std::uint8_t>
stepValue(const Step &step)
{
    return step.kind == Step::Update
               ? std::vector<std::uint8_t>(64, 0x7b)
               : std::vector<std::uint8_t>(48, 0x6a);
}

void
applyStep(const Step &step, Model &model)
{
    if (step.kind == Step::Erase)
        model.erase(step.key);
    else
        model[step.key] = stepValue(step);
}

/**
 * Seed a FAST tree with @p seed_keys (each its own in-place commit),
 * run @p steps with a crash at event @p k under @p policy and @p seed,
 * recover, and check the result: an intact tree holding every
 * committed key with its committed value, and the in-flight step's key
 * in its before or its after state.
 */
Status
crashWindow(CrashPolicy policy, std::uint64_t seed, std::uint64_t k,
            const std::vector<std::uint64_t> &seed_keys,
            const std::vector<Step> &steps, bool *crashed)
{
    PmConfig pm_cfg;
    pm_cfg.size = 8u << 20;
    pm_cfg.mode = PmMode::CacheSim;
    pm_cfg.crashPolicy = policy;
    pm_cfg.crashSeed = seed;
    PmDevice device(pm_cfg);
    testsupport::PmCheckerGuard guard(device);
    EngineConfig cfg;
    cfg.kind = EngineKind::Fast;
    cfg.format.logLen = 1u << 20;
    auto engine = std::move(*Engine::create(device, cfg, true));
    auto tree = *engine->createTree(1);

    Model committed;
    for (std::uint64_t key : seed_keys) {
        Step seed_step{Step::Insert, key};
        auto v = stepValue(seed_step);
        EXPECT_TRUE(
            engine->insert(tree, key, std::span<const std::uint8_t>(v))
                .isOk());
        applyStep(seed_step, committed);
    }
    // An even number of in-place commits: the window starts on the
    // leaf's first slot-array buffer.
    {
        auto tx = engine->begin();
        PageId root = *tree.rootPid(tx->pageIO());
        tx->rollback();
        EXPECT_EQ(device.readU16(engine->superblock().pageOffset(root) +
                                 page::kOffFlags) &
                      FaspPageIO::kSecondBufferFlag,
                  0);
    }

    pm::PointCrashInjector injector(device.eventCount() + k);
    device.setCrashInjector(&injector);
    *crashed = false;
    std::size_t done = 0;
    try {
        for (; done < steps.size(); ++done) {
            const Step &step = steps[done];
            auto v = stepValue(step);
            std::span<const std::uint8_t> span(v);
            Status s = step.kind == Step::Insert
                           ? engine->insert(tree, step.key, span)
                       : step.kind == Step::Update
                           ? engine->update(tree, step.key, span)
                           : engine->erase(tree, step.key);
            if (!s.isOk())
                return s;
            applyStep(step, committed);
        }
    } catch (const pm::CrashException &) {
        *crashed = true;
    }
    device.setCrashInjector(nullptr);
    if (!*crashed)
        return Status::ok();

    engine.reset();
    device.reviveAfterCrash();
    auto recovered = std::move(*Engine::create(device, cfg, false));
    auto tx = recovered->begin();
    BTree t(1);
    Status integrity = t.checkIntegrity(tx->pageIO());
    tx->rollback();
    if (!integrity.isOk())
        return integrity;

    const Step &inflight = steps[done];
    Model after = committed;
    applyStep(inflight, after);
    // Does the recovered tree hold exactly @p world over the committed
    // keys and the in-flight one?
    auto holds = [&](const Model &world) {
        std::vector<std::uint64_t> keys = {inflight.key};
        for (const auto &entry : committed)
            keys.push_back(entry.first);
        std::vector<std::uint8_t> got;
        for (std::uint64_t key : keys) {
            auto want = world.find(key);
            bool present = recovered->get(t, key, got).isOk();
            if (present != (want != world.end()) ||
                (present && got != want->second))
                return false;
        }
        return true;
    };
    if (holds(committed) || holds(after))
        return Status::ok();
    return statusCorruption(
        "recovered keys match neither the committed state nor the "
        "in-flight step's after-state (step " +
        std::to_string(done) + ")");
}

/**
 * Run one FAST single-record insert (key 999 after keys 1..10) with a
 * crash at event @p k under @p policy and @p seed; return the
 * recovered tree's state check.
 */
Status
crashOneInsert(CrashPolicy policy, std::uint64_t seed, std::uint64_t k,
               bool *crashed)
{
    return crashWindow(policy, seed, k,
                       {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
                       {{Step::Insert, 999}}, crashed);
}

TEST(AtomicityAssumptionTest, FastPcasSurvivesTornLines)
{
    // The PCAS in-place commit publishes only 8-byte words, so the
    // torn-line adversary must never produce an inconsistent page —
    // word atomicity is all the protocol assumes.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (std::uint64_t k = 0; k < 40; ++k) {
            bool crashed = false;
            Status integrity =
                crashOneInsert(CrashPolicy::TornLines, seed, k, &crashed);
            if (!crashed)
                break;
            ASSERT_TRUE(integrity.isOk())
                << "PCAS torn-line crash seed " << seed << " point "
                << k << ": " << integrity.toString();
        }
    }
}

TEST(AtomicityAssumptionTest, FastPcasSurvivesTornLinesOnEveryCommitKind)
{
    // Ten seed inserts leave the leaf reading its first slot-array
    // buffer; each in-place commit below switches buffers, so the
    // back-to-back pair crashes in a 0->1 and then a 1->0 publish.
    const std::vector<std::uint64_t> seeds = {10, 20, 30, 40, 50,
                                              60, 70, 80, 90, 100};
    struct Case
    {
        const char *what;
        std::vector<Step> steps;
    };
    const Case cases[] = {
        {"middle insert", {{Step::Insert, 55}}},
        {"update", {{Step::Update, 50}}},
        {"delete", {{Step::Erase, 30}}},
        {"back-to-back", {{Step::Insert, 55}, {Step::Insert, 65}}},
    };
    for (CrashPolicy policy :
         {CrashPolicy::TornLines, CrashPolicy::RandomLines}) {
        for (const Case &c : cases) {
            for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                for (std::uint64_t k = 0;; ++k) {
                    bool crashed = false;
                    Status state = crashWindow(policy, seed, k, seeds,
                                               c.steps, &crashed);
                    if (!crashed)
                        break;
                    ASSERT_TRUE(state.isOk())
                        << c.what << " policy "
                        << static_cast<int>(policy) << " seed " << seed
                        << " point " << k << ": " << state.toString();
                }
            }
        }
    }
}

TEST(AtomicityAssumptionTest, FashSurvivesTornLinesHere)
{
    // The same scenario with FASH: its commit mark is CRC-protected
    // and headers are only ever published by checkpointing AFTER the
    // mark is durable, so 8-byte atomicity suffices (paper §1: "we
    // also evaluate our logging approach that can be used ... when
    // the atomic write granularity for PM is smaller than the cache
    // line size").
    for (std::uint64_t k = 0;; ++k) {
        PmConfig pm_cfg;
        pm_cfg.size = 8u << 20;
        pm_cfg.mode = PmMode::CacheSim;
        pm_cfg.crashPolicy = CrashPolicy::TornLines;
        pm_cfg.crashSeed = 777 + k;
        PmDevice device(pm_cfg);
        testsupport::PmCheckerGuard guard(device);
        EngineConfig cfg;
        cfg.kind = EngineKind::Fash;
        cfg.format.logLen = 1u << 20;
        auto engine = std::move(*Engine::create(device, cfg, true));
        auto tree = *engine->createTree(1);
        std::vector<std::uint8_t> value(48, 0x6a);
        for (std::uint64_t key = 1; key <= 10; ++key) {
            ASSERT_TRUE(
                engine
                    ->insert(tree, key,
                             std::span<const std::uint8_t>(value))
                    .isOk());
        }

        pm::PointCrashInjector injector(device.eventCount() + k);
        device.setCrashInjector(&injector);
        bool crashed = false;
        try {
            (void)engine->insert(
                tree, 999, std::span<const std::uint8_t>(value));
        } catch (const pm::CrashException &) {
            crashed = true;
        }
        device.setCrashInjector(nullptr);
        if (!crashed)
            break;

        engine.reset();
        device.reviveAfterCrash();
        auto recovered = std::move(*Engine::create(device, cfg,
                                                   false));
        auto tx = recovered->begin();
        BTree t(1);
        Status integrity = t.checkIntegrity(tx->pageIO());
        ASSERT_TRUE(integrity.isOk())
            << "FASH torn-line crash point " << k << ": "
            << integrity.toString();
        auto n = t.count(tx->pageIO());
        ASSERT_TRUE(n.isOk());
        EXPECT_GE(*n, 10u) << "committed records lost at " << k;
        tx->rollback();
    }
}

} // namespace
} // namespace fasp::core
