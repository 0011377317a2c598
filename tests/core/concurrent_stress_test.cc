/**
 * @file
 * Concurrency stress suite (run under ThreadSanitizer in CI).
 *
 * Layers, bottom-up:
 *  - LatchTable: mutual exclusion and reader/writer semantics proved
 *    by hammering a non-atomic counter that only the latch protects;
 *    distinct pages never share a latch, and a page past the table
 *    panics.
 *  - PmDevice (CacheSim mode): concurrent writers on disjoint lines
 *    through the sharded dirty-line cache, with the persistency
 *    checker attached.
 *  - Engines: N client threads of mixed insert/update/delete traffic
 *    against one tree, persistency checker attached throughout, then
 *    a single-threaded full verification pass against a per-thread
 *    reference model.
 *
 * Thread counts stay small (4) and per-thread op counts modest so the
 * suite finishes quickly even under TSan's ~10x slowdown.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "pager/latch_table.h"
#include "pm/device.h"
#include "support/checker_guard.h"

namespace fasp::core {
namespace {

using btree::BTree;
using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;
using testsupport::PmCheckerGuard;

constexpr std::size_t kThreads = 4;

std::vector<std::uint8_t>
value(std::uint64_t seed, std::size_t len)
{
    std::vector<std::uint8_t> out(len);
    Rng rng(seed);
    rng.fillBytes(out.data(), out.size());
    return out;
}

// ---------------------------------------------------------------- latches

TEST(ConcurrentLatchTest, ExclusiveProtectsPlainCounter)
{
    LatchTable latches(64);
    const PageId pid = 7;
    constexpr std::size_t kIncrements = 20000;

    // Deliberately NOT atomic: only the latch makes this safe, so a
    // latch bug shows up as a lost update (and as a TSan race).
    std::uint64_t counter = 0;

    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (std::size_t i = 0; i < kIncrements; ++i) {
                while (!latches.tryAcquireExclusive(pid)) {
                    std::this_thread::yield();
                }
                ++counter;
                latches.releaseExclusive(pid);
            }
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(counter, kThreads * kIncrements);
    EXPECT_GE(latches.statsSnapshot().exclusiveAcquires,
              kThreads * kIncrements);
}

TEST(ConcurrentLatchTest, ReadersCoexistWritersExclude)
{
    LatchTable latches(64);
    const PageId pid = 3;

    std::uint64_t published = 0;    // written under exclusive only
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> torn_reads{0};

    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kThreads - 1; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                if (!latches.tryAcquireShared(pid)) {
                    std::this_thread::yield();
                    continue;
                }
                // Writers keep `published` a multiple of 1000; seeing
                // anything else means a reader overlapped a writer.
                if (published % 1000 != 0)
                    torn_reads.fetch_add(1);
                latches.releaseShared(pid);
            }
        });
    }

    for (std::uint64_t round = 1; round <= 500; ++round) {
        while (!latches.tryAcquireExclusive(pid))
            std::this_thread::yield();
        // Pass through non-multiple states inside the critical section.
        published += 1;
        published += 999;
        latches.releaseExclusive(pid);
    }
    stop.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();

    EXPECT_EQ(torn_reads.load(), 0u);
    EXPECT_EQ(published, 500u * 1000u);
}

TEST(ConcurrentLatchTest, RaiiGuardsProtectPlainCounter)
{
    // Same lost-update hammer as above, but through the annotated RAII
    // guards (SharedPageLatchGuard / ExclusivePageLatchGuard) — the
    // scoped API that -Wthread-safety checks at compile time. Guards
    // conflict-abort (throw) instead of spinning forever, so workers
    // catch LatchConflict and retry, mirroring engine transactions.
    LatchTable latches(64);
    PageLatch &latch = latches.latch(7);
    constexpr std::size_t kIncrements = 20000;

    std::uint64_t counter = 0;

    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (std::size_t i = 0; i < kIncrements; ++i) {
                for (;;) {
                    try {
                        ExclusivePageLatchGuard guard(latch, 7);
                        ++counter;
                        break;
                    } catch (const LatchConflict &) {
                        std::this_thread::yield();
                    }
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(counter, kThreads * kIncrements);

    // The shared guard really releases: an exclusive acquire succeeds
    // after a scoped shared hold ends.
    {
        SharedPageLatchGuard reader(latch, 7);
    }
    {
        ExclusivePageLatchGuard writer(latch, 7);
    }
}

TEST(ConcurrentLatchTest, GuardThrowsLatchConflictWhenHeld)
{
    LatchTable latches(64);
    PageLatch &latch = latches.latch(5);

    ExclusivePageLatchGuard holder(latch, 5);
    EXPECT_THROW(SharedPageLatchGuard(latch, 5), LatchConflict);
    EXPECT_THROW(ExclusivePageLatchGuard(latch, 5), LatchConflict);
}

TEST(ConcurrentLatchTest, UpgradeOnlySucceedsForSoleReader)
{
    LatchTable latches(64);
    const PageId pid = 11;

    ASSERT_TRUE(latches.tryAcquireShared(pid));
    ASSERT_TRUE(latches.tryAcquireShared(pid)); // second reader
    EXPECT_FALSE(latches.tryUpgrade(pid));      // not sole -> refuse
    latches.releaseShared(pid);
    EXPECT_TRUE(latches.tryUpgrade(pid));       // sole reader now
    EXPECT_FALSE(latches.tryAcquireShared(pid));
    latches.releaseExclusive(pid);
}

TEST(ConcurrentLatchTest, DistinctPagesNeverConflict)
{
    // One latch per page: while page p is held exclusively, every
    // other page takes a shared latch and upgrades it without a single
    // conflict. A table that folded pages onto fewer latches would
    // refuse some of these by the pigeonhole principle.
    constexpr PageId kPages = 256;
    LatchTable latches(kPages);
    for (PageId p = 0; p < kPages; ++p) {
        ASSERT_TRUE(latches.tryAcquireExclusive(p));
        for (PageId q = 0; q < kPages; ++q) {
            if (q == p)
                continue;
            ASSERT_TRUE(latches.tryAcquireShared(q)) << p << " vs " << q;
            ASSERT_TRUE(latches.tryUpgrade(q)) << p << " vs " << q;
            latches.releaseExclusive(q);
        }
        latches.releaseExclusive(p);
    }
    LatchStats stats = latches.statsSnapshot();
    EXPECT_EQ(stats.conflicts, 0u);
    EXPECT_EQ(stats.upgrades, std::uint64_t{kPages} * (kPages - 1));
}

TEST(ConcurrentLatchDeathTest, PagePastTheTablePanics)
{
    // The death test forks; re-exec keeps that safe in a binary whose
    // other tests start threads.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    LatchTable latches(16);
    EXPECT_DEATH(latches.tryAcquireShared(16), "page latch out of range");
    EXPECT_DEATH(latches.latch(16), "page latch out of range");
}

// ----------------------------------------------------------------- device

TEST(ConcurrentDeviceTest, DisjointLineWritersUnderChecker)
{
    PmConfig pm_cfg;
    pm_cfg.size = 4u << 20;
    pm_cfg.mode = PmMode::CacheSim;
    PmDevice device(pm_cfg);
    PmCheckerGuard guard(device);

    constexpr std::size_t kLinesPerThread = 256;
    constexpr std::size_t kRounds = 16;

    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            // Thread t owns every kThreads-th cache line: neighbours
            // in PM, so the sharded dirty-line cache sees interleaved
            // traffic, but no line is ever shared.
            for (std::size_t round = 0; round < kRounds; ++round) {
                for (std::size_t i = 0; i < kLinesPerThread; ++i) {
                    PmOffset off = static_cast<PmOffset>(
                        (t + i * kThreads) * kCacheLineSize);
                    std::uint64_t v = round * 1000 + t;
                    device.write(off, &v, sizeof v);
                    device.clflush(off);
                }
                device.sfence();
            }
        });
    }
    for (auto &w : workers)
        w.join();

    // Single-threaded read-back: last round's value must be visible.
    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < kLinesPerThread; ++i) {
            PmOffset off = static_cast<PmOffset>(
                (t + i * kThreads) * kCacheLineSize);
            std::uint64_t v = 0;
            device.read(off, &v, sizeof v);
            EXPECT_EQ(v, (kRounds - 1) * 1000 + t);
        }
    }
    EXPECT_EQ(device.stats().clflushes,
              kThreads * kRounds * kLinesPerThread);
}

// ---------------------------------------------------------------- engines

/**
 * Mixed-operation stress against one engine. Each thread owns the key
 * residue class (key % kThreads == tid) but the keys interleave, so
 * neighbouring records share pages and the per-page latches (FAST,
 * FASH) or the engine mutex (buffered engines) see real contention.
 * The persistency checker stays attached for the whole run; at the end
 * a single-threaded pass verifies the tree against the union of the
 * per-thread reference models.
 */
class ConcurrentEngineStressTest
    : public ::testing::TestWithParam<EngineKind>
{
  protected:
    ConcurrentEngineStressTest()
    {
        PmConfig pm_cfg;
        pm_cfg.size = 48u << 20;
        pm_cfg.mode = PmMode::Direct;
        device_ = std::make_unique<PmDevice>(pm_cfg);
        guard_ = std::make_unique<PmCheckerGuard>(*device_);
    }

    std::unique_ptr<PmDevice> device_;
    std::unique_ptr<PmCheckerGuard> guard_;
};

TEST_P(ConcurrentEngineStressTest, MixedOpsThenFullVerify)
{
    EngineConfig cfg;
    cfg.kind = GetParam();
    cfg.format.logLen = 8u << 20;
    auto engine_res = Engine::create(*device_, cfg, true);
    ASSERT_TRUE(engine_res.isOk()) << engine_res.status().toString();
    std::unique_ptr<Engine> engine = std::move(*engine_res);

    auto tree_res = engine->createTree(2);
    ASSERT_TRUE(tree_res.isOk());
    BTree tree = *tree_res;

    constexpr std::size_t kOpsPerThread = 400;
    using Model = std::map<std::uint64_t, std::vector<std::uint8_t>>;
    std::vector<Model> models(kThreads);
    std::vector<std::vector<std::uint64_t>> erased(kThreads);

    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            Rng rng(0xC0FFEE + t);
            Model &model = models[t];
            std::uint64_t next_key = t; // residue class t, interleaved

            // Conflict-abort retry with randomized exponential backoff.
            // Latches are held to commit and an upgrade needs the sole
            // shared holder, so clients that retry in lock-step can keep
            // failing each other's upgrades for minutes on a loaded
            // host; a random sleep breaks the symmetry.
            Rng jitter(0xBAC0FF + t);
            auto retry = [&](auto op) {
                std::uint64_t backoff_us = 1;
                for (;;) {
                    try {
                        return op();
                    } catch (const LatchConflict &) {
                        std::this_thread::sleep_for(std::chrono::microseconds(
                            1 + jitter.next() % backoff_us));
                        backoff_us = std::min<std::uint64_t>(backoff_us * 2,
                                                             4096);
                    }
                }
            };

            for (std::size_t i = 0; i < kOpsPerThread; ++i) {
                std::uint64_t dice = rng.next() % 100;
                if (model.empty() || dice < 60) {
                    std::uint64_t key = next_key;
                    next_key += kThreads;
                    auto bytes = value(key * 31 + 7, 40);
                    Status s = retry([&] {
                        return engine->insert(
                            tree, key,
                            std::span<const std::uint8_t>(bytes));
                    });
                    ASSERT_TRUE(s.isOk()) << s.toString();
                    model[key] = std::move(bytes);
                } else if (dice < 85) {
                    auto it = model.begin();
                    std::advance(it,
                                 rng.next() % model.size());
                    auto bytes = value(it->first * 131 + i, 56);
                    Status s = retry([&] {
                        return engine->update(
                            tree, it->first,
                            std::span<const std::uint8_t>(bytes));
                    });
                    ASSERT_TRUE(s.isOk()) << s.toString();
                    it->second = std::move(bytes);
                } else {
                    auto it = model.begin();
                    std::advance(it,
                                 rng.next() % model.size());
                    Status s = retry([&] {
                        return engine->erase(tree, it->first);
                    });
                    ASSERT_TRUE(s.isOk()) << s.toString();
                    erased[t].push_back(it->first);
                    model.erase(it);
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();

    // Single-threaded verification: every surviving key present with
    // the right bytes, every erased key absent, count exact.
    std::size_t expected = 0;
    std::vector<std::uint8_t> read_back;
    for (std::size_t t = 0; t < kThreads; ++t) {
        expected += models[t].size();
        for (const auto &[key, bytes] : models[t]) {
            Status s = engine->get(tree, key, read_back);
            ASSERT_TRUE(s.isOk())
                << "key " << key << ": " << s.toString();
            EXPECT_EQ(read_back, bytes) << "key " << key;
        }
        for (std::uint64_t key : erased[t]) {
            if (models[t].count(key))
                continue; // erased then re-inserted? (keys are unique,
                          // so this cannot happen, but stay defensive)
            Status s = engine->get(tree, key, read_back);
            EXPECT_EQ(s.code(), StatusCode::NotFound)
                << "erased key " << key << " still readable";
        }
    }
    auto tx = engine->begin();
    auto counted = tree.count(tx->pageIO());
    ASSERT_TRUE(counted.isOk());
    EXPECT_EQ(*counted, expected);
}

INSTANTIATE_TEST_SUITE_P(Engines, ConcurrentEngineStressTest,
                         ::testing::Values(EngineKind::Fast,
                                           EngineKind::Fash,
                                           EngineKind::Nvwal),
                         [](const auto &info) {
                             return std::string(
                                 engineKindName(info.param));
                         });

} // namespace
} // namespace fasp::core
