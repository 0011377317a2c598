/**
 * @file
 * Engine-level tests across database page sizes (the paper notes 4K or
 * 8K pages as typical): formatting, heavy load, and reopen for every
 * engine at 1K, 4K, and 8K pages.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/rng.h"
#include "core/engine.h"
#include "pm/device.h"

namespace fasp::core {
namespace {

using btree::BTree;
using pm::PmConfig;
using pm::PmDevice;

/** gtest prints a parameter's raw bytes into each test's name, so the
 *  padding after `kind` is a zeroed member: compiler padding would
 *  print whatever the stack held and rename the tests run to run. */
struct SizeCase
{
    EngineKind kind;
    std::uint8_t pad[3] = {};
    std::uint32_t pageSize;
};
static_assert(sizeof(SizeCase) == 8, "SizeCase must have no padding");

class PageSizeTest : public ::testing::TestWithParam<SizeCase>
{};

TEST_P(PageSizeTest, LoadAndReopen)
{
    const SizeCase &param = GetParam();
    PmConfig pm_cfg;
    pm_cfg.size = 48u << 20;
    PmDevice device(pm_cfg);

    EngineConfig cfg;
    cfg.kind = param.kind;
    cfg.format.pageSize = param.pageSize;
    cfg.format.logLen = 8u << 20;

    std::map<std::uint64_t, std::vector<std::uint8_t>> model;
    {
        auto engine = Engine::create(device, cfg, true);
        ASSERT_TRUE(engine.isOk()) << engine.status().toString();
        EXPECT_EQ((*engine)->superblock().pageSize, param.pageSize);
        auto tree = (*engine)->createTree(1);
        ASSERT_TRUE(tree.isOk());

        Rng rng(param.pageSize + 3);
        for (int i = 0; i < 1500; ++i) {
            std::uint64_t key = rng.next() | 1;
            if (model.count(key))
                continue;
            std::vector<std::uint8_t> v(8 + rng.nextBounded(
                                                param.pageSize / 8));
            rng.fillBytes(v.data(), v.size());
            ASSERT_TRUE(
                (*engine)
                    ->insert(*tree, key,
                             std::span<const std::uint8_t>(v))
                    .isOk())
                << "i=" << i;
            model[key] = v;
        }
        auto tx = (*engine)->begin();
        ASSERT_TRUE(tree->checkIntegrity(tx->pageIO()).isOk());
        tx->rollback();
    }

    auto engine = Engine::create(device, cfg, false);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    auto tx = (*engine)->begin();
    auto tree = BTree::open(tx->pageIO(), 1);
    ASSERT_TRUE(tree.isOk());
    std::vector<std::uint8_t> out;
    for (const auto &[key, v] : model) {
        ASSERT_TRUE(tree->get(tx->pageIO(), key, out).isOk()) << key;
        EXPECT_EQ(out, v);
    }
    tx->rollback();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PageSizeTest,
    ::testing::Values(
        SizeCase{.kind = EngineKind::Fast, .pageSize = 1024},
        SizeCase{.kind = EngineKind::Fast, .pageSize = 8192},
        SizeCase{.kind = EngineKind::Fash, .pageSize = 1024},
        SizeCase{.kind = EngineKind::Fash, .pageSize = 8192},
        SizeCase{.kind = EngineKind::Nvwal, .pageSize = 8192},
        SizeCase{.kind = EngineKind::LegacyWal, .pageSize = 8192},
        SizeCase{.kind = EngineKind::Journal, .pageSize = 1024}),
    [](const ::testing::TestParamInfo<SizeCase> &info) {
        return std::string(engineKindName(info.param.kind)) + "_" +
               std::to_string(info.param.pageSize);
    });

} // namespace
} // namespace fasp::core
