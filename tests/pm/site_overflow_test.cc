/**
 * @file
 * The ledger's site registry is process-wide and never shrinks, so the
 * overflow test fills it in a binary of its own.
 */

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "pm/phase.h"

namespace fasp::pm {
namespace {

TEST(PmAttributionTest, SlotTableOverflowFoldsIntoOverflowSite)
{
    // The registry keeps tag pointers: the tags outlive the process.
    static std::deque<std::string> tags;
    PhaseTracker tracker;
    tracker.start();
    for (std::size_t i = 0; i < kMaxSites + 10; ++i) {
        tags.push_back("site-" + std::to_string(i));
        const char *prev = setThreadSite(tags.back().c_str());
        billFlush(0);
        setThreadSite(prev);
    }
    tracker.stop();
    auto sites = tracker.sites();
    ASSERT_EQ(sites.size(), kMaxSites + 1);
    EXPECT_STREQ(sites.back().first, "(overflow)");
    EXPECT_EQ(sites.back().second.flushes, 10u);
    std::uint64_t total = 0;
    for (const auto &[name, cell] : sites)
        total += cell.flushes;
    EXPECT_EQ(total, kMaxSites + 10);
}

} // namespace
} // namespace fasp::pm
