/**
 * @file
 * Integration tests for every engine (FAST, FASH, NVWAL, legacy WAL,
 * rollback journal): transactions, rollback, persistence across
 * reopen, splits under load, overflow values, and engine-specific
 * behaviours (FAST in-place commits, NVWAL checkpointing).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>

#include "common/rng.h"
#include "core/buffered_engine.h"
#include "core/engine.h"
#include "core/fasp_engine.h"
#include "page/slotted_page.h"
#include "pm/device.h"
#include "pm/phase.h"

namespace fasp::core {
namespace {

using btree::BTree;
using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;

std::vector<std::uint8_t>
value(std::uint64_t seed, std::size_t len)
{
    std::vector<std::uint8_t> out(len);
    Rng rng(seed);
    rng.fillBytes(out.data(), out.size());
    return out;
}

std::span<const std::uint8_t>
asSpan(const std::vector<std::uint8_t> &v)
{
    return std::span<const std::uint8_t>(v);
}

class EngineTest : public ::testing::TestWithParam<EngineKind>
{
  protected:
    EngineTest()
    {
        PmConfig pm_cfg;
        pm_cfg.size = 32u << 20;
        pm_cfg.mode = PmMode::Direct;
        device_ = std::make_unique<PmDevice>(pm_cfg);
    }

    EngineConfig
    engineConfig()
    {
        EngineConfig cfg;
        cfg.kind = GetParam();
        cfg.format.logLen = 4u << 20;
        return cfg;
    }

    std::unique_ptr<Engine>
    freshEngine()
    {
        auto engine = Engine::create(*device_, engineConfig(), true);
        EXPECT_TRUE(engine.isOk()) << engine.status().toString();
        return std::move(*engine);
    }

    std::unique_ptr<Engine>
    reopenEngine()
    {
        auto engine = Engine::create(*device_, engineConfig(), false);
        EXPECT_TRUE(engine.isOk()) << engine.status().toString();
        return std::move(*engine);
    }

    std::unique_ptr<PmDevice> device_;
};

TEST_P(EngineTest, CreateTreeInsertGet)
{
    auto engine = freshEngine();
    auto tree = engine->createTree(1);
    ASSERT_TRUE(tree.isOk()) << tree.status().toString();

    auto v = value(7, 64);
    ASSERT_TRUE(engine->insert(*tree, 42, asSpan(v)).isOk());

    std::vector<std::uint8_t> out;
    ASSERT_TRUE(engine->get(*tree, 42, out).isOk());
    EXPECT_EQ(out, v);
    EXPECT_EQ(engine->get(*tree, 43, out).code(),
              StatusCode::NotFound);
}

// A get and a scan end their read-only transactions by committing
// them: each counts one commit, no rollback, and neither an in-place
// nor a log commit; a missing key still reports NotFound.
TEST_P(EngineTest, ReadsCommitReadOnly)
{
    auto engine = freshEngine();
    auto tree = engine->createTree(1);
    ASSERT_TRUE(tree.isOk());
    auto v = value(3, 32);
    ASSERT_TRUE(engine->insert(*tree, 42, asSpan(v)).isOk());

    const EngineStats before = engine->stats();
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(engine->get(*tree, 42, out).isOk());
    EXPECT_EQ(out, v);
    const EngineStats after_get = engine->stats();
    EXPECT_EQ(after_get.txCommitted - before.txCommitted, 1u);
    EXPECT_EQ(after_get.txRolledBack, before.txRolledBack);
    EXPECT_EQ(after_get.inPlaceCommits, before.inPlaceCommits);
    EXPECT_EQ(after_get.logCommits, before.logCommits);

    EXPECT_EQ(engine->get(*tree, 43, out).code(), StatusCode::NotFound);
    std::size_t visited = 0;
    ASSERT_TRUE(engine
                    ->scan(*tree, 0, ~std::uint64_t{0},
                           [&](std::uint64_t, std::span<const std::uint8_t>) {
                               ++visited;
                               return true;
                           })
                    .isOk());
    EXPECT_EQ(visited, 1u);
    const EngineStats after = engine->stats();
    EXPECT_EQ(after.txCommitted - before.txCommitted, 3u);
    EXPECT_EQ(after.txRolledBack, before.txRolledBack);
    EXPECT_EQ(after.inPlaceCommits, before.inPlaceCommits);
    EXPECT_EQ(after.logCommits, before.logCommits);
}

TEST_P(EngineTest, UpdateAndErase)
{
    auto engine = freshEngine();
    auto tree = engine->createTree(1);
    ASSERT_TRUE(tree.isOk());

    auto v1 = value(1, 32);
    auto v2 = value(2, 48);
    ASSERT_TRUE(engine->insert(*tree, 5, asSpan(v1)).isOk());
    ASSERT_TRUE(engine->update(*tree, 5, asSpan(v2)).isOk());
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(engine->get(*tree, 5, out).isOk());
    EXPECT_EQ(out, v2);
    ASSERT_TRUE(engine->erase(*tree, 5).isOk());
    EXPECT_EQ(engine->get(*tree, 5, out).code(), StatusCode::NotFound);
}

TEST_P(EngineTest, MultiOperationTransaction)
{
    auto engine = freshEngine();
    auto tree = engine->createTree(1);
    ASSERT_TRUE(tree.isOk());

    auto tx = engine->begin();
    for (std::uint64_t key = 1; key <= 20; ++key) {
        auto v = value(key, 40);
        ASSERT_TRUE(
            tree->insert(tx->pageIO(), key, asSpan(v)).isOk());
    }
    ASSERT_TRUE(tx->commit().isOk());

    std::vector<std::uint8_t> out;
    for (std::uint64_t key = 1; key <= 20; ++key)
        EXPECT_TRUE(engine->get(*tree, key, out).isOk()) << key;
}

TEST_P(EngineTest, RollbackDiscardsChanges)
{
    auto engine = freshEngine();
    auto tree = engine->createTree(1);
    ASSERT_TRUE(tree.isOk());
    auto v = value(3, 32);
    ASSERT_TRUE(engine->insert(*tree, 1, asSpan(v)).isOk());

    {
        auto tx = engine->begin();
        auto v2 = value(4, 32);
        ASSERT_TRUE(tree->insert(tx->pageIO(), 2, asSpan(v2)).isOk());
        ASSERT_TRUE(tree->update(tx->pageIO(), 1, asSpan(v2)).isOk());
        tx->rollback();
    }

    std::vector<std::uint8_t> out;
    ASSERT_TRUE(engine->get(*tree, 1, out).isOk());
    EXPECT_EQ(out, v) << "update must have been rolled back";
    EXPECT_EQ(engine->get(*tree, 2, out).code(), StatusCode::NotFound);
}

TEST_P(EngineTest, AbandonedTransactionRollsBack)
{
    auto engine = freshEngine();
    auto tree = engine->createTree(1);
    ASSERT_TRUE(tree.isOk());
    {
        auto tx = engine->begin();
        auto v = value(5, 16);
        ASSERT_TRUE(tree->insert(tx->pageIO(), 9, asSpan(v)).isOk());
        // tx destroyed without commit.
    }
    EXPECT_EQ(engine->stats().txRolledBack, 1u);
    std::vector<std::uint8_t> out;
    EXPECT_EQ(engine->get(*tree, 9, out).code(), StatusCode::NotFound);
}

TEST_P(EngineTest, PersistsAcrossReopen)
{
    std::map<std::uint64_t, std::vector<std::uint8_t>> model;
    {
        auto engine = freshEngine();
        auto tree = engine->createTree(1);
        ASSERT_TRUE(tree.isOk());
        Rng rng(17);
        for (int i = 0; i < 500; ++i) {
            std::uint64_t key = rng.next();
            auto v = value(key, 8 + rng.nextBounded(120));
            if (model.count(key))
                continue;
            ASSERT_TRUE(engine->insert(*tree, key, asSpan(v)).isOk());
            model[key] = v;
        }
    } // engine destroyed; device retains durable state

    auto engine = reopenEngine();
    auto tx = engine->begin();
    auto tree = BTree::open(tx->pageIO(), 1);
    ASSERT_TRUE(tree.isOk());
    std::vector<std::uint8_t> out;
    for (const auto &[key, v] : model) {
        ASSERT_TRUE(tree->get(tx->pageIO(), key, out).isOk()) << key;
        EXPECT_EQ(out, v);
    }
    EXPECT_TRUE(tree->checkIntegrity(tx->pageIO()).isOk());
    tx->rollback();
}

TEST_P(EngineTest, HeavyInsertLoadWithSplits)
{
    auto engine = freshEngine();
    auto tree = engine->createTree(1);
    ASSERT_TRUE(tree.isOk());
    Rng rng(23);
    std::map<std::uint64_t, bool> model;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t key = rng.next();
        if (model.count(key))
            continue;
        auto v = value(key, 64);
        ASSERT_TRUE(engine->insert(*tree, key, asSpan(v)).isOk())
            << "i=" << i;
        model[key] = true;
    }
    auto tx = engine->begin();
    auto n = tree->count(tx->pageIO());
    ASSERT_TRUE(n.isOk());
    EXPECT_EQ(*n, model.size());
    auto stats = tree->stats(tx->pageIO());
    ASSERT_TRUE(stats.isOk());
    EXPECT_GT(stats->leafPages, 10u);
    EXPECT_TRUE(tree->checkIntegrity(tx->pageIO()).isOk());
    tx->rollback();
}

TEST_P(EngineTest, OverflowValuesPersist)
{
    auto big = value(99, 12000);
    {
        auto engine = freshEngine();
        auto tree = engine->createTree(1);
        ASSERT_TRUE(tree.isOk());
        ASSERT_TRUE(engine->insert(*tree, 1, asSpan(big)).isOk());
    }
    auto engine = reopenEngine();
    auto tx = engine->begin();
    auto tree = BTree::open(tx->pageIO(), 1);
    ASSERT_TRUE(tree.isOk());
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(tree->get(tx->pageIO(), 1, out).isOk());
    EXPECT_EQ(out, big);
    tx->rollback();
}

TEST_P(EngineTest, MixedWorkloadMatchesModel)
{
    auto engine = freshEngine();
    auto tree = engine->createTree(1);
    ASSERT_TRUE(tree.isOk());

    Rng rng(31);
    std::map<std::uint64_t, std::vector<std::uint8_t>> model;
    for (int step = 0; step < 2000; ++step) {
        std::uint64_t key = rng.nextBounded(400);
        auto v = value(rng.next(), 8 + rng.nextBounded(100));
        std::uint64_t dice = rng.nextBounded(10);
        if (dice < 5) {
            Status status = engine->insert(*tree, key, asSpan(v));
            if (model.count(key))
                EXPECT_EQ(status.code(), StatusCode::AlreadyExists);
            else {
                ASSERT_TRUE(status.isOk()) << status.toString();
                model[key] = v;
            }
        } else if (dice < 8) {
            Status status = engine->update(*tree, key, asSpan(v));
            if (model.count(key)) {
                ASSERT_TRUE(status.isOk());
                model[key] = v;
            } else {
                EXPECT_EQ(status.code(), StatusCode::NotFound);
            }
        } else {
            Status status = engine->erase(*tree, key);
            if (model.count(key)) {
                ASSERT_TRUE(status.isOk());
                model.erase(key);
            } else {
                EXPECT_EQ(status.code(), StatusCode::NotFound);
            }
        }
    }

    auto tx = engine->begin();
    std::size_t scanned = 0;
    ASSERT_TRUE(tree->scan(tx->pageIO(), 0, ~std::uint64_t{0},
                           [&](std::uint64_t k,
                               std::span<const std::uint8_t> v) {
                               auto it = model.find(k);
                               EXPECT_NE(it, model.end());
                               if (it != model.end()) {
                                   EXPECT_TRUE(std::equal(
                                       v.begin(), v.end(),
                                       it->second.begin(),
                                       it->second.end()));
                               }
                               ++scanned;
                               return true;
                           })
                    .isOk());
    EXPECT_EQ(scanned, model.size());
    EXPECT_TRUE(tree->checkIntegrity(tx->pageIO()).isOk());
    tx->rollback();
}

TEST_P(EngineTest, MultipleTreesCoexist)
{
    auto engine = freshEngine();
    auto ta = engine->createTree(1);
    auto tb = engine->createTree(2);
    ASSERT_TRUE(ta.isOk());
    ASSERT_TRUE(tb.isOk());
    auto va = value(1, 16);
    auto vb = value(2, 16);
    ASSERT_TRUE(engine->insert(*ta, 7, asSpan(va)).isOk());
    ASSERT_TRUE(engine->insert(*tb, 7, asSpan(vb)).isOk());
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(engine->get(*ta, 7, out).isOk());
    EXPECT_EQ(out, va);
    ASSERT_TRUE(engine->get(*tb, 7, out).isOk());
    EXPECT_EQ(out, vb);
}

TEST_P(EngineTest, DropTreeFreesPages)
{
    auto engine = freshEngine();
    auto tree = engine->createTree(1);
    ASSERT_TRUE(tree.isOk());
    for (std::uint64_t key = 1; key <= 1000; ++key) {
        auto v = value(key, 64);
        ASSERT_TRUE(engine->insert(*tree, key, asSpan(v)).isOk());
    }
    auto tx = engine->begin();
    ASSERT_TRUE(BTree::drop(tx->pageIO(), 1).isOk());
    ASSERT_TRUE(tx->commit().isOk());

    auto tx2 = engine->begin();
    EXPECT_EQ(BTree::open(tx2->pageIO(), 1).status().code(),
              StatusCode::NotFound);
    tx2->rollback();

    // A new tree can be created reusing the freed space.
    auto tree2 = engine->createTree(1);
    ASSERT_TRUE(tree2.isOk());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineTest,
    ::testing::Values(EngineKind::Fast, EngineKind::Fash,
                      EngineKind::Nvwal, EngineKind::LegacyWal,
                      EngineKind::Journal),
    [](const ::testing::TestParamInfo<EngineKind> &info) {
        return engineKindName(info.param);
    });

// --- Engine-specific behaviour ----------------------------------------------

TEST(FastEngineTest, SingleInsertUsesInPlaceCommit)
{
    PmConfig pm_cfg;
    pm_cfg.size = 32u << 20;
    PmDevice device(pm_cfg);
    EngineConfig cfg;
    cfg.kind = EngineKind::Fast;
    auto engine = Engine::create(device, cfg, true);
    ASSERT_TRUE(engine.isOk());
    auto tree = (*engine)->createTree(1);
    ASSERT_TRUE(tree.isOk());

    std::uint64_t before = (*engine)->stats().inPlaceCommits;
    auto v = value(1, 64);
    ASSERT_TRUE((*engine)->insert(*tree, 10, asSpan(v)).isOk());
    EXPECT_EQ((*engine)->stats().inPlaceCommits, before + 1)
        << "a single-record insert must take the in-place path";

    // Updates and deletes of a single record too (paper §3.2).
    ASSERT_TRUE((*engine)->update(*tree, 10, asSpan(v)).isOk());
    ASSERT_TRUE((*engine)->erase(*tree, 10).isOk());
    EXPECT_EQ((*engine)->stats().inPlaceCommits, before + 3);
}

TEST(FastEngineTest, SplitFallsBackToSlotHeaderLogging)
{
    PmConfig pm_cfg;
    pm_cfg.size = 32u << 20;
    PmDevice device(pm_cfg);
    EngineConfig cfg;
    cfg.kind = EngineKind::Fast;
    auto engine = Engine::create(device, cfg, true);
    ASSERT_TRUE(engine.isOk());
    auto tree = (*engine)->createTree(1);
    ASSERT_TRUE(tree.isOk());

    // FAST leaves cap at kMaxInPlaceSlots records, so within the first
    // ~27 single-record inserts a split (and thus a logged commit)
    // must occur.
    std::uint64_t logged_before = (*engine)->stats().logCommits;
    for (std::uint64_t key = 1; key <= 40; ++key) {
        auto v = value(key, 16);
        ASSERT_TRUE((*engine)->insert(*tree, key, asSpan(v)).isOk());
    }
    EXPECT_GT((*engine)->stats().logCommits, logged_before);
    EXPECT_GT((*engine)->stats().inPlaceCommits, 0u);
}

// The paper's in-place commit cost (§3.2, Fig. 7): the record's lines
// and the staged slot array's line under one fence, then one flush and
// one fence to publish header word 0 — for every kind of single-record
// commit, including those that shift the slot array.
TEST(FastEngineTest, InPlaceCommitCostsOneFlushAndOneFence)
{
    PmConfig pm_cfg;
    pm_cfg.size = 32u << 20;
    PmDevice device(pm_cfg);
    EngineConfig cfg;
    cfg.kind = EngineKind::Fast;
    auto created = Engine::create(device, cfg, true);
    ASSERT_TRUE(created.isOk());
    Engine &engine = **created;
    auto tree = engine.createTree(1);
    ASSERT_TRUE(tree.isOk());
    for (std::uint64_t key = 10; key <= 100; key += 10) {
        auto v = value(key, 48);
        ASSERT_TRUE(engine.insert(*tree, key, asSpan(v)).isOk());
    }

    // Cache lines spanned by @p key's record in the one-leaf tree.
    auto record_lines = [&](std::uint64_t key) -> std::uint64_t {
        auto tx = engine.begin();
        auto root = tree->rootPid(tx->pageIO());
        EXPECT_TRUE(root.isOk());
        page::PageIO &leaf = tx->pageIO().page(*root, false);
        page::RecordRef ref =
            page::record(leaf, page::lowerBound(leaf, key).slot);
        tx->rollback();
        std::uint64_t end =
            ref.off + page::kRecordHeaderBytes + ref.payloadLen;
        return (end - 1) / kCacheLineSize - ref.off / kCacheLineSize + 1;
    };

    struct Commit
    {
        const char *what;
        std::uint64_t key;
        bool erases;
        std::function<Status()> run;
    };
    const auto v15 = value(15, 48), v200 = value(200, 48),
               v50 = value(51, 64);
    const Commit commits[] = {
        {"middle insert", 15, false,
         [&] { return engine.insert(*tree, 15, asSpan(v15)); }},
        {"append", 200, false,
         [&] { return engine.insert(*tree, 200, asSpan(v200)); }},
        {"update", 50, false,
         [&] { return engine.update(*tree, 50, asSpan(v50)); }},
        {"delete", 30, true, [&] { return engine.erase(*tree, 30); }},
    };
    // Which slot-array buffer the leaf reads from, straight from PM.
    auto second_buffer = [&] {
        auto tx = engine.begin();
        PageId root = *tree->rootPid(tx->pageIO());
        tx->rollback();
        return (device.readU16(engine.superblock().pageOffset(root) +
                               page::kOffFlags) &
                FaspPageIO::kSecondBufferFlag) != 0;
    };
    for (const Commit &c : commits) {
        std::uint64_t in_place = engine.stats().inPlaceCommits;
        bool was_second = second_buffer();
        pm::PhaseTracker window;
        window.start();
        ASSERT_TRUE(c.run().isOk()) << c.what;
        window.stop();
        ASSERT_EQ(engine.stats().inPlaceCommits, in_place + 1) << c.what;
        EXPECT_NE(second_buffer(), was_second)
            << c.what << " must switch slot-array buffers";

        using pm::Component;
        EXPECT_EQ(window.flushCount(Component::Atomic64BWrite), 1u)
            << c.what;
        EXPECT_EQ(window.fenceCount(Component::Atomic64BWrite), 1u)
            << c.what;
        std::uint64_t lines = c.erases ? 0 : record_lines(c.key);
        EXPECT_EQ(window.flushCount(Component::FlushRecord), lines + 1)
            << c.what;
        EXPECT_EQ(window.fenceCount(Component::FlushRecord), 1u)
            << c.what;
    }
}

TEST(FashEngineTest, NeverUsesInPlaceCommit)
{
    PmConfig pm_cfg;
    pm_cfg.size = 32u << 20;
    PmDevice device(pm_cfg);
    EngineConfig cfg;
    cfg.kind = EngineKind::Fash;
    auto engine = Engine::create(device, cfg, true);
    ASSERT_TRUE(engine.isOk());
    auto tree = (*engine)->createTree(1);
    ASSERT_TRUE(tree.isOk());
    for (std::uint64_t key = 1; key <= 50; ++key) {
        auto v = value(key, 16);
        ASSERT_TRUE((*engine)->insert(*tree, key, asSpan(v)).isOk());
    }
    EXPECT_EQ((*engine)->stats().inPlaceCommits, 0u);
    EXPECT_GT((*engine)->stats().logCommits, 0u);
}

TEST(FastEngineTest, PcasFailureInjectionStillCommits)
{
    PmConfig pm_cfg;
    pm_cfg.size = 32u << 20;
    PmDevice device(pm_cfg);
    EngineConfig cfg;
    cfg.kind = EngineKind::Fast;
    cfg.pcas.failProbability = 0.9;
    cfg.pcas.seed = 77;
    cfg.pcas.maxRetries = 4; // force frequent fallbacks
    auto engine = Engine::create(device, cfg, true);
    ASSERT_TRUE(engine.isOk());
    auto tree = (*engine)->createTree(1);
    ASSERT_TRUE(tree.isOk());

    for (std::uint64_t key = 1; key <= 200; ++key) {
        auto v = value(key, 16);
        ASSERT_TRUE((*engine)->insert(*tree, key, asSpan(v)).isOk());
    }
    EXPECT_GT((*engine)->stats().pcasFallbacks, 0u)
        << "with p=0.9 and 4 retries some commits must fall back";
    EXPECT_GT((*engine)->stats().logCommits, 0u);
    // And everything is still correct.
    auto tx = (*engine)->begin();
    auto n = tree->count(tx->pageIO());
    ASSERT_TRUE(n.isOk());
    EXPECT_EQ(*n, 200u);
    tx->rollback();
}

TEST(NvwalEngineTest, LazyCheckpointAppliesFrames)
{
    PmConfig pm_cfg;
    pm_cfg.size = 32u << 20;
    PmDevice device(pm_cfg);
    EngineConfig cfg;
    cfg.kind = EngineKind::Nvwal;
    cfg.format.logLen = 256u << 10; // small log: forces checkpoints
    auto engine = Engine::create(device, cfg, true);
    ASSERT_TRUE(engine.isOk());
    auto *nvwal = dynamic_cast<NvwalEngine *>(engine->get());
    ASSERT_NE(nvwal, nullptr);
    auto tree = (*engine)->createTree(1);
    ASSERT_TRUE(tree.isOk());

    // A checkpoint empties the WAL index; nothing else does.
    std::size_t checkpoints = 0;
    for (std::uint64_t key = 1; key <= 2000; ++key) {
        auto v = value(key, 64);
        ASSERT_TRUE((*engine)->insert(*tree, key, asSpan(v)).isOk());
        if (nvwal->walLog().indexedPages() == 0)
            ++checkpoints;
    }
    EXPECT_GT(checkpoints, 0u);

    std::vector<std::uint8_t> out;
    for (std::uint64_t key = 1; key <= 2000; ++key)
        ASSERT_TRUE((*engine)->get(*tree, key, out).isOk()) << key;
}

TEST(NvwalEngineTest, DifferentialLoggingIsSmall)
{
    PmConfig pm_cfg;
    pm_cfg.size = 32u << 20;
    PmDevice device(pm_cfg);
    EngineConfig cfg;
    cfg.kind = EngineKind::Nvwal;
    auto engine = Engine::create(device, cfg, true);
    ASSERT_TRUE(engine.isOk());
    auto tree = (*engine)->createTree(1);
    ASSERT_TRUE(tree.isOk());
    // Warm the tree so the next insert touches an existing page.
    for (std::uint64_t key = 1; key <= 10; ++key) {
        auto v = value(key, 64);
        ASSERT_TRUE((*engine)->insert(*tree, key, asSpan(v)).isOk());
    }
    // The buffer cache is DRAM: every PM byte an insert stores is log.
    pm::PmStats before = device.stats();
    auto v = value(999, 64);
    ASSERT_TRUE((*engine)->insert(*tree, 999, asSpan(v)).isOk());
    std::uint64_t log_bytes = device.stats().since(before).storeBytes;
    EXPECT_LT(log_bytes, 1024u)
        << "a 64B insert must log far less than a full 4K page";
    EXPECT_GT(log_bytes, 64u);
}

} // namespace
} // namespace fasp::core
