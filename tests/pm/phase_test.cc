/**
 * @file
 * Unit tests for the per-thread PM ledger: phase and site billing,
 * PhaseTracker windows, PhaseScope's clock gate, threads that exit
 * inside a window, and the device's billing into the active component.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "pm/device.h"
#include "pm/phase.h"

namespace fasp::pm {
namespace {

/** Run @p bill under PhaseScope @p comp and site tag @p site. */
template <typename Fn>
void
billAt(Component comp, const char *site, Fn &&bill)
{
    PhaseScope phase(comp);
    const char *prev = setThreadSite(site);
    bill();
    setThreadSite(prev);
}

TEST(PhaseTrackerTest, StartsAtZero)
{
    PhaseTracker tracker;
    EXPECT_EQ(tracker.totalNs(Component::Search), 0u);
    EXPECT_EQ(tracker.grandTotalNs(), 0u);
    EXPECT_EQ(tracker.grandTotalFlushes(), 0u);
    EXPECT_TRUE(tracker.sites().empty());
}

TEST(PhaseTrackerTest, ModelTimeAttributedToCurrentComponent)
{
    PhaseTracker tracker;
    tracker.start();
    billAt(Component::LogFlush, nullptr, [] { billFence(500); });
    billAt(Component::Checkpoint, nullptr, [] { billFence(200); });
    tracker.stop();
    EXPECT_EQ(tracker.modelNs(Component::LogFlush), 500u);
    EXPECT_EQ(tracker.modelNs(Component::Checkpoint), 200u);
    EXPECT_EQ(tracker.modelNs(Component::Search), 0u);
    EXPECT_EQ(tracker.fenceCount(Component::LogFlush), 1u);
}

TEST(PhaseTrackerTest, NestedScopesAttributeExclusively)
{
    PhaseTracker tracker;
    tracker.start();
    {
        PhaseScope outer(Component::Search);
        billReadMiss(100);
        {
            PhaseScope inner(Component::FlushRecord);
            billFlush(40);
        }
        billReadMiss(1);
    }
    tracker.stop();
    EXPECT_EQ(tracker.modelNs(Component::Search), 101u);
    EXPECT_EQ(tracker.readMissCount(Component::Search), 2u);
    EXPECT_EQ(tracker.modelNs(Component::FlushRecord), 40u);
    EXPECT_EQ(tracker.flushCount(Component::FlushRecord), 1u);
    EXPECT_EQ(tracker.scopeCount(Component::Search), 1u);
}

TEST(PhaseTrackerTest, WallTimeAccumulates)
{
    PhaseTracker tracker;
    tracker.start();
    {
        PhaseScope scope(Component::NvwalCompute);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    tracker.stop();
    EXPECT_GE(tracker.wallNs(Component::NvwalCompute), 1'000'000u);
    EXPECT_EQ(tracker.grandTotalNs(),
              tracker.totalNs(Component::NvwalCompute));
}

TEST(PhaseTrackerTest, ResetClears)
{
    PhaseTracker tracker;
    tracker.start();
    billAt(Component::Search, "reset-site", [] { billFlush(5); });
    tracker.stop();
    ASSERT_EQ(tracker.flushCount(Component::Search), 1u);
    tracker.reset();
    EXPECT_EQ(tracker.modelNs(Component::Search), 0u);
    EXPECT_EQ(tracker.flushCount(Component::Search), 0u);
    EXPECT_TRUE(tracker.sites().empty());
}

TEST(PhaseTrackerTest, NullTrackerScopeIsNoop)
{
    // With no window open (and obs off) PhaseScope reads no clock: the
    // scope entry is counted, no wall time is billed.
    const ThreadTotals before = threadTotals();
    {
        PhaseScope scope(Component::Search);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const ThreadTotals after = threadTotals();
    constexpr auto kSearch = static_cast<std::size_t>(Component::Search);
    EXPECT_EQ(after.phases[kSearch].wallNs, before.phases[kSearch].wallNs);
    EXPECT_EQ(after.phases[kSearch].scopes,
              before.phases[kSearch].scopes + 1);
}

TEST(PhaseTrackerTest, WindowKeepsCountsOfExitedThreads)
{
    PhaseTracker tracker;
    tracker.start();
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 100; ++i)
                billAt(Component::LogFlush, "exited-threads",
                       [] { billFlush(3); });
        });
    }
    for (auto &th : threads)
        th.join();
    // Billed from joined threads only: their ledgers were retired.
    tracker.stop();
    EXPECT_EQ(tracker.flushCount(Component::LogFlush), 800u);
    EXPECT_EQ(tracker.modelNs(Component::LogFlush), 2400u);
    EXPECT_EQ(tracker.scopeCount(Component::LogFlush), 800u);
}

TEST(PmAttributionTest, BillsPhaseAndSite)
{
    PhaseTracker tracker;
    tracker.start();
    billAt(Component::LogFlush, "siteA", [] {
        billStore(64);
        billStore(32);
        billFlush(0);
    });
    billAt(Component::Checkpoint, "siteB", [] { billFence(300); });
    tracker.stop();

    const PmCell &lf = tracker.phase(Component::LogFlush);
    EXPECT_EQ(lf.stores, 2u);
    EXPECT_EQ(lf.storeBytes, 96u);
    EXPECT_EQ(lf.flushes, 1u);
    EXPECT_EQ(lf.fences, 0u);

    const PmCell &cp = tracker.phase(Component::Checkpoint);
    EXPECT_EQ(cp.fences, 1u);
    EXPECT_EQ(cp.modelNs, 300u);
    EXPECT_EQ(tracker.phase(Component::Defrag).stores, 0u);

    auto sites = tracker.sites();
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_STREQ(sites[0].first, "siteA");
    EXPECT_EQ(sites[0].second.stores, 2u);
    EXPECT_EQ(sites[0].second.flushes, 1u);
    EXPECT_EQ(sites[0].second.wallNs, 0u); // sites carry no wall time
    EXPECT_STREQ(sites[1].first, "siteB");
    EXPECT_EQ(sites[1].second.modelNs, 300u);
}

TEST(PmAttributionTest, NullSiteBilledAsUntagged)
{
    PhaseTracker tracker;
    tracker.start();
    billAt(Component::None, nullptr, [] { billFlush(0); });
    tracker.stop();
    auto sites = tracker.sites();
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_STREQ(sites[0].first, "(untagged)");
    EXPECT_EQ(sites[0].second.flushes, 1u);
}

TEST(PmAttributionTest, ContentEqualTagsShareOneSlot)
{
    // Identical literals can have distinct addresses across TUs; the
    // site registry must fall back to content equality.
    static const char a[] = "same-site";
    static const char b[] = "same-site";
    ASSERT_NE(static_cast<const void *>(a), static_cast<const void *>(b));
    PhaseTracker tracker;
    tracker.start();
    billAt(Component::None, a, [] { billFlush(0); });
    billAt(Component::None, b, [] { billFlush(0); });
    tracker.stop();
    auto sites = tracker.sites();
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0].second.flushes, 2u);
}

TEST(PhaseDeviceTest, DeviceChargesIntoActiveComponent)
{
    PmConfig cfg;
    cfg.size = 4096;
    cfg.latency = LatencyModel::of(300, 700);
    PmDevice dev(cfg);
    PhaseTracker tracker;
    tracker.start();
    {
        PhaseScope scope(Component::FlushRecord);
        dev.writeU64(0, 1);
        dev.clflush(0);
    }
    {
        PhaseScope scope(Component::LogFlush);
        SiteScope site(dev, "device-test");
        dev.writeU64(64, 2);
        dev.clflush(64);
        dev.clflush(64);
        dev.writeScratch(128, "x", 1); // best-effort: not billed
    }
    tracker.stop();
    EXPECT_EQ(tracker.modelNs(Component::FlushRecord), 700u);
    EXPECT_EQ(tracker.flushCount(Component::FlushRecord), 1u);
    EXPECT_EQ(tracker.modelNs(Component::LogFlush), 1400u);
    EXPECT_EQ(tracker.flushCount(Component::LogFlush), 2u);
    EXPECT_EQ(tracker.phase(Component::LogFlush).stores, 1u);
    EXPECT_EQ(tracker.grandTotalFlushes(), 3u);
    EXPECT_EQ(dev.stats().clflushes, 3u);
    EXPECT_EQ(dev.stats().modelNs, 2100u);

    auto sites = tracker.sites();
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_STREQ(sites[0].first, "(untagged)");
    EXPECT_EQ(sites[0].second.flushes, 1u);
    EXPECT_STREQ(sites[1].first, "device-test");
    EXPECT_EQ(sites[1].second.flushes, 2u);
}

TEST(PhaseDeviceTest, ReadMissChargedToActiveComponent)
{
    PmConfig cfg;
    cfg.size = 1u << 16;
    cfg.latency = LatencyModel::of(620, 300); // penalty 500
    PmDevice dev(cfg);
    dev.invalidateTagCache();
    PhaseTracker tracker;
    tracker.start();
    std::uint8_t buf[8];
    {
        PhaseScope scope(Component::Search);
        dev.read(4096, buf, 8);
    }
    tracker.stop();
    EXPECT_EQ(tracker.modelNs(Component::Search), 500u);
    EXPECT_EQ(tracker.readMissCount(Component::Search), 1u);
}

TEST(PhaseTrackerTest, ComponentNamesAreDistinct)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Component::NumComponents); ++i) {
        const char *name = componentName(static_cast<Component>(i));
        EXPECT_STRNE(name, "?");
    }
}

} // namespace
} // namespace fasp::pm
