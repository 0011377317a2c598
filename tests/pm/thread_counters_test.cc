/**
 * @file
 * Unit tests for ThreadCounters, the per-thread counter block behind
 * PmStats, EngineStats, PcasStats and the latch-table counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "pm/thread_counters.h"

namespace fasp::pm {
namespace {

constexpr std::size_t kClients = 4;
constexpr std::uint64_t kSteps = 20000;

/** Two slots: of four clients, at least two share the overflow cell. */
using SmallBlock = ThreadCounters<2, 2>;

/** Run kClients fresh threads at once; client c adds 1 to counter 0
 *  and c + 1 to counter 1, kSteps times. Returns the slot each one ran
 *  in. */
std::vector<std::size_t>
runClients(SmallBlock &block)
{
    std::vector<std::size_t> slots(kClients);
    std::latch all_registered(kClients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&block, &slots, &all_registered, c] {
            slots[c] = threadSlot();
            all_registered.arrive_and_wait(); // every client holds a slot
            for (std::uint64_t i = 0; i < kSteps; ++i) {
                block.add(0);
                block.add(1, c + 1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return slots;
}

TEST(ThreadCountersTest, SnapshotIsExactAcrossThreadHandover)
{
    SmallBlock block;
    const std::array<std::uint64_t, 2> round = {
        kClients * kSteps, kSteps * kClients * (kClients + 1) / 2};

    std::vector<std::size_t> first = runClients(block);
    EXPECT_EQ(block.sum(), round);
    EXPECT_TRUE(std::any_of(first.begin(), first.end(),
                            [](std::size_t s) { return s < 2; }));
    EXPECT_TRUE(std::any_of(first.begin(), first.end(),
                            [](std::size_t s) { return s >= 2; }));

    // Halfway: fresh threads replace the exited ones, as perfbench's
    // one-second slices do. They reuse the freed slots, and the counts
    // the exited threads left stay in the snapshot.
    std::vector<std::size_t> second = runClients(block);
    EXPECT_EQ(std::set<std::size_t>(second.begin(), second.end()),
              std::set<std::size_t>(first.begin(), first.end()));
    const std::array<std::uint64_t, 2> total = {2 * round[0],
                                                2 * round[1]};
    EXPECT_EQ(block.sum(), total);

    block.reset();
    EXPECT_EQ(block.sum(), (std::array<std::uint64_t, 2>{}));
}

} // namespace
} // namespace fasp::pm
