/**
 * @file
 * Each PM event is billed once. For every engine, a ledger window's
 * phase cells and site cells add up to the same totals, and their
 * flushes, fences and modelled ns to the device's PmStats; FAST's spans
 * add up to the window; a 4-client FAST run keeps all of it across
 * threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pager/latch_table.h"
#include "pm/device.h"
#include "pm/phase.h"

namespace fasp {
namespace {

using core::EngineKind;

std::unique_ptr<pm::PmDevice>
makeDevice()
{
    pm::PmConfig cfg;
    cfg.size = 64u << 20;
    cfg.latency = pm::LatencyModel::of(300, 300);
    return std::make_unique<pm::PmDevice>(cfg);
}

std::unique_ptr<core::Engine>
makeEngine(pm::PmDevice &device, EngineKind kind)
{
    core::EngineConfig cfg;
    cfg.kind = kind;
    cfg.format.logLen = 4u << 20;
    auto engine = core::Engine::create(device, cfg, true);
    FASP_ASSERT(engine.isOk());
    return std::move(*engine);
}

/** Insert @p n random keys, retrying latch conflicts after a random
 *  sleep (lock-step retries can livelock; see ROADMAP). */
void
insertKeys(core::Engine &engine, btree::BTree tree, std::uint64_t seed,
           int n)
{
    Rng rng(seed);
    std::vector<std::uint8_t> value(64, 0x5a);
    for (int i = 0; i < n; ++i) {
        std::uint64_t key = rng.next();
        Status status = Status::ok();
        for (std::uint64_t backoff_us = 1;;
             backoff_us = std::min<std::uint64_t>(backoff_us * 2, 4096)) {
            try {
                status = engine.insert(tree, key, value);
                break;
            } catch (const LatchConflict &) {
                std::this_thread::sleep_for(std::chrono::microseconds(
                    1 + rng.next() % backoff_us));
            }
        }
        ASSERT_TRUE(status.isOk() ||
                    status.code() == StatusCode::AlreadyExists)
            << status.toString();
    }
}

pm::PmCell
phaseSum(const pm::PhaseTracker &window)
{
    pm::PmCell sum;
    for (std::size_t i = 0; i < pm::kNumComponents; ++i)
        sum += window.phase(static_cast<pm::Component>(i));
    return sum;
}

/** The window's phase and site views hold every event once, and agree
 *  with the device's own counters over the same interval. */
void
expectBilledOnce(const pm::PhaseTracker &window, const pm::PmStats &delta)
{
    pm::PmCell phases = phaseSum(window);
    pm::PmCell sites;
    for (const auto &[name, cell] : window.sites())
        sites += cell;
    EXPECT_GT(phases.flushes, 0u);
    // Wall time and scope entries are per phase only.
    EXPECT_EQ(phases.stores, sites.stores);
    EXPECT_EQ(phases.storeBytes, sites.storeBytes);
    EXPECT_EQ(phases.flushes, sites.flushes);
    EXPECT_EQ(phases.fences, sites.fences);
    EXPECT_EQ(phases.readMisses, sites.readMisses);
    EXPECT_EQ(phases.modelNs, sites.modelNs);
    EXPECT_EQ(phases.flushes, delta.clflushes.load());
    EXPECT_EQ(phases.fences, delta.fences.load());
    EXPECT_EQ(phases.modelNs, delta.modelNs.load());
}

/** With obs on, the spans recorded for @p engine add up to the window. */
void
expectSpansMatch(const pm::PhaseTracker &window, const char *engine)
{
    pm::PmCell phases = phaseSum(window);
    auto summaries = obs::SpanProfiler::global().engineSummaries();
    auto it = std::find_if(summaries.begin(), summaries.end(),
                           [&](const obs::EngineSpanSummary &s) {
                               return std::string_view(s.engine) == engine;
                           });
    ASSERT_NE(it, summaries.end());
    EXPECT_EQ(it->flushes, phases.flushes);
    EXPECT_EQ(it->fences, phases.fences);
    EXPECT_EQ(it->modelNs, phases.modelNs);
}

class PmLedgerTest : public ::testing::TestWithParam<EngineKind>
{};

TEST_P(PmLedgerTest, EachEventCountedOnce)
{
    auto device = makeDevice();
    auto engine = makeEngine(*device, GetParam());
    btree::BTree tree = *engine->createTree(2);

    const pm::PmStats before = device->stats();
    pm::PhaseTracker window;
    window.start();
    insertKeys(*engine, tree, 7, 300);
    window.stop();
    expectBilledOnce(window, device->stats().since(before));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, PmLedgerTest,
                         ::testing::Values(EngineKind::Fast,
                                           EngineKind::Fash,
                                           EngineKind::Nvwal,
                                           EngineKind::LegacyWal,
                                           EngineKind::Journal),
                         [](const auto &info) {
                             return std::string(
                                 core::engineKindName(info.param));
                         });

/** Obs on for one test, with the global span profiler emptied before
 *  and after so other tests see a clean profiler. */
class ObsOn
{
  public:
    ObsOn()
    {
        obs::setEnabled(true);
        obs::SpanProfiler::global().reset();
    }
    ~ObsOn()
    {
        obs::setEnabled(false);
        obs::SpanProfiler::global().reset();
    }
};

TEST(PmLedgerSpanTest, FastSpansAddUpToTheWindow)
{
    ObsOn obs_on;
    auto device = makeDevice();
    auto engine = makeEngine(*device, EngineKind::Fast);
    btree::BTree tree = *engine->createTree(2);
    obs::SpanProfiler::global().reset();

    const pm::PmStats before = device->stats();
    pm::PhaseTracker window;
    window.start();
    insertKeys(*engine, tree, 11, 300);
    window.stop();
    expectBilledOnce(window, device->stats().since(before));
    expectSpansMatch(window, "FAST");
}

TEST(PmLedgerSpanTest, FourClientFastCountsEachEventOnce)
{
    ObsOn obs_on;
    auto device = makeDevice();
    auto engine = makeEngine(*device, EngineKind::Fast);
    btree::BTree tree = *engine->createTree(2);
    obs::SpanProfiler::global().reset();

    const pm::PmStats before = device->stats();
    pm::PhaseTracker window;
    window.start();
    std::vector<std::thread> clients;
    for (std::uint64_t t = 0; t < 4; ++t) {
        clients.emplace_back(
            [&, t] { insertKeys(*engine, tree, 100 + t, 150); });
    }
    for (auto &c : clients)
        c.join();
    window.stop();
    expectBilledOnce(window, device->stats().since(before));
    expectSpansMatch(window, "FAST");
}

} // namespace
} // namespace fasp
