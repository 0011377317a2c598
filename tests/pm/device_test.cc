/**
 * @file
 * Unit tests for the PM device: data path, cache simulation, crash
 * semantics, latency accounting, and crash injection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pm/checker.h"
#include "pm/device.h"

namespace fasp::pm {
namespace {

/** Read the durable u64 at offset 0 (bypasses the simulated cache). */
std::uint64_t
loadFromDurable(PmDevice &dev)
{
    std::uint64_t v;
    dev.readDurable(0, &v, 8);
    return v;
}

PmConfig
smallConfig(PmMode mode)
{
    PmConfig cfg;
    cfg.size = 1u << 16;
    cfg.mode = mode;
    cfg.latency = LatencyModel::of(300, 300);
    return cfg;
}

TEST(PmDeviceDirectTest, WriteReadRoundTrip)
{
    PmDevice dev(smallConfig(PmMode::Direct));
    const char msg[] = "hello persistent world";
    dev.write(128, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    dev.read(128, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(PmDeviceDirectTest, TypedAccessors)
{
    PmDevice dev(smallConfig(PmMode::Direct));
    dev.writeU16(0, 0xbeef);
    dev.writeU32(8, 0xdeadbeefu);
    dev.writeU64(16, 0x0123456789abcdefull);
    EXPECT_EQ(dev.readU16(0), 0xbeef);
    EXPECT_EQ(dev.readU32(8), 0xdeadbeefu);
    EXPECT_EQ(dev.readU64(16), 0x0123456789abcdefull);
}

TEST(PmDeviceDirectTest, MemsetFills)
{
    PmDevice dev(smallConfig(PmMode::Direct));
    dev.memset(100, 0xab, 1000);
    std::vector<std::uint8_t> buf(1000);
    dev.read(100, buf.data(), buf.size());
    for (auto b : buf)
        EXPECT_EQ(b, 0xab);
}

TEST(PmDeviceDirectTest, DirectWritesAreImmediatelyDurable)
{
    PmDevice dev(smallConfig(PmMode::Direct));
    dev.writeU64(64, 42);
    EXPECT_EQ(dev.durableData()[64], 42);
}

TEST(PmDeviceCacheSimTest, StoresAreVolatileUntilFlushed)
{
    PmDevice dev(smallConfig(PmMode::CacheSim));
    dev.writeU64(64, 42);
    // Visible through the cache...
    EXPECT_EQ(dev.readU64(64), 42u);
    // ...but not durable yet.
    EXPECT_EQ(dev.durableData()[64], 0);
    EXPECT_EQ(dev.dirtyLineCount(), 1u);

    dev.clflush(64);
    EXPECT_EQ(dev.durableData()[64], 42);
    EXPECT_EQ(dev.dirtyLineCount(), 0u);
}

TEST(PmDeviceCacheSimTest, CrashDropsUnflushedLines)
{
    PmDevice dev(smallConfig(PmMode::CacheSim));
    dev.writeU64(0, 11);
    dev.clflush(0);
    dev.writeU64(128, 22); // never flushed
    dev.crash();
    EXPECT_TRUE(dev.crashed());

    dev.reviveAfterCrash();
    EXPECT_EQ(dev.readU64(0), 11u);
    EXPECT_EQ(dev.readU64(128), 0u);
}

TEST(PmDeviceCacheSimTest, FlushRangeCoversSpanningLines)
{
    PmDevice dev(smallConfig(PmMode::CacheSim));
    std::vector<std::uint8_t> data(200, 0x5a);
    dev.write(30, data.data(), data.size()); // spans 4 lines
    EXPECT_EQ(dev.dirtyLineCount(), 4u);
    dev.flushRange(30, 200);
    EXPECT_EQ(dev.dirtyLineCount(), 0u);
    for (std::size_t i = 0; i < 200; ++i)
        EXPECT_EQ(dev.durableData()[30 + i], 0x5a);
}

TEST(PmDeviceCacheSimTest, ReadSeesCacheOverDurable)
{
    PmDevice dev(smallConfig(PmMode::CacheSim));
    dev.writeU64(0, 1);
    dev.clflush(0);
    dev.writeU64(0, 2); // dirty again
    EXPECT_EQ(dev.readU64(0), 2u);
    EXPECT_EQ(loadFromDurable(dev), 1u);
}

TEST(PmDeviceCacheSimTest, PartialLineWritePreservesRest)
{
    PmDevice dev(smallConfig(PmMode::CacheSim));
    dev.writeU64(0, 0x1111111111111111ull);
    dev.clflush(0);
    dev.writeU16(2, 0x2222); // dirty the same line partially
    dev.clflush(0);
    std::uint64_t v;
    dev.readDurable(0, &v, 8);
    EXPECT_EQ(v, 0x1111111122221111ull);
}

TEST(PmDeviceStatsTest, CountersTrackOperations)
{
    PmDevice dev(smallConfig(PmMode::Direct));
    dev.writeU64(0, 1);
    dev.writeU64(8, 2);
    dev.clflush(0);
    dev.sfence();
    std::uint64_t v = dev.readU64(0);
    (void)v;
    EXPECT_EQ(dev.stats().stores, 2u);
    EXPECT_EQ(dev.stats().storeBytes, 16u);
    EXPECT_EQ(dev.stats().clflushes, 1u);
    EXPECT_EQ(dev.stats().fences, 1u);
    EXPECT_GE(dev.stats().loads, 1u);
}

TEST(PmDeviceStatsTest, FlushChargesWriteLatency)
{
    PmDevice dev(smallConfig(PmMode::Direct));
    std::uint64_t before = dev.stats().modelNs;
    dev.writeU64(0, 1);
    dev.clflush(0);
    EXPECT_EQ(dev.stats().modelNs - before, 300u);
}

TEST(PmDeviceStatsTest, ReadMissChargesPenaltyOncePerLine)
{
    auto cfg = smallConfig(PmMode::Direct);
    cfg.latency = LatencyModel::of(500, 500); // penalty = 500-120 = 380
    PmDevice dev(cfg);
    dev.invalidateTagCache();
    std::uint64_t base = dev.stats().modelNs;

    std::uint8_t buf[8];
    dev.read(4096, buf, 8); // miss
    EXPECT_EQ(dev.stats().modelNs - base, 380u);
    EXPECT_EQ(dev.stats().readMisses, 1u);

    dev.read(4100, buf, 8); // same line: hit
    EXPECT_EQ(dev.stats().modelNs - base, 380u);

    dev.read(4160, buf, 8); // next line: miss
    EXPECT_EQ(dev.stats().modelNs - base, 760u);
}

TEST(PmDeviceStatsTest, WriteAllocatePreventsReadMissCharge)
{
    PmDevice dev(smallConfig(PmMode::Direct));
    dev.invalidateTagCache();
    dev.writeU64(8192, 3); // installs the line
    std::uint64_t base = dev.stats().modelNs;
    std::uint8_t buf[8];
    dev.read(8192, buf, 8);
    EXPECT_EQ(dev.stats().modelNs, base);
}

TEST(PmDeviceStatsTest, ClflushEvictsLineFromReadCache)
{
    PmDevice dev(smallConfig(PmMode::Direct));
    dev.writeU64(4096, 9);
    dev.clflush(4096);
    std::uint64_t base = dev.stats().readMisses;
    std::uint8_t buf[8];
    dev.read(4096, buf, 8);
    EXPECT_EQ(dev.stats().readMisses, base + 1);
}

TEST(PmDeviceStatsTest, DramSpeedChargesNoReadPenalty)
{
    auto cfg = smallConfig(PmMode::Direct);
    cfg.latency = LatencyModel::dramSpeed();
    PmDevice dev(cfg);
    dev.invalidateTagCache();
    std::uint8_t buf[64];
    dev.read(0, buf, 64);
    EXPECT_EQ(dev.stats().modelNs, 0u);
}

// Event indices count from a base read before the injector is
// attached: the counter ticks only while something observes it.

TEST(PmDeviceCrashInjectTest, InjectedCrashThrowsAndDropsCache)
{
    PmDevice dev(smallConfig(PmMode::CacheSim));
    PointCrashInjector injector(dev.eventCount() + 1);
    dev.setCrashInjector(&injector);
    dev.writeU64(0, 7); // event base
    EXPECT_THROW(dev.writeU64(64, 8), CrashException); // event base + 1
    EXPECT_TRUE(dev.crashed());
    dev.setCrashInjector(nullptr);
    dev.reviveAfterCrash();
    EXPECT_EQ(dev.readU64(0), 0u); // the unflushed store was dropped
}

TEST(PmDeviceCrashInjectTest, EventIndexCountsStoresFlushesFences)
{
    PmDevice dev(smallConfig(PmMode::CacheSim));
    std::uint64_t base = dev.eventCount();
    PointCrashInjector injector(base + 3); // one past the three below
    dev.setCrashInjector(&injector);
    dev.writeU64(0, 1);
    dev.clflush(0);
    dev.sfence();
    EXPECT_EQ(dev.eventCount() - base, 3u);
    dev.setCrashInjector(nullptr);
}

TEST(PmDeviceCrashInjectTest, EventIndexTicksOnlyWhileObserved)
{
    PmDevice dev(smallConfig(PmMode::CacheSim));
    std::uint64_t base = dev.eventCount();
    dev.writeU64(0, 1);
    dev.clflush(0);
    dev.sfence();
    EXPECT_EQ(dev.eventCount(), base); // nothing attached: no tick

    PersistencyChecker checker;
    dev.setChecker(&checker);
    dev.writeU64(64, 2);
    dev.clflush(64);
    dev.sfence();
    EXPECT_EQ(dev.eventCount(), base + 3); // resumes from the base
    dev.setChecker(nullptr);
}

TEST(PmDeviceStatsTest, ResetStatsZeroesEveryCounter)
{
    PmDevice dev(smallConfig(PmMode::Direct));
    dev.writeU64(0, 1);
    dev.clflush(0);
    dev.sfence();
    (void)dev.readU64(4096);
    dev.resetStats();
    const PmStats s = dev.stats();
    for (std::uint64_t v : {s.stores.value, s.storeBytes.value,
                            s.loads.value, s.loadBytes.value,
                            s.clflushes.value, s.fences.value,
                            s.readMisses.value, s.modelNs.value})
        EXPECT_EQ(v, 0u);
}

TEST(PmDeviceCrashPolicyTest, TornLinesPersistWordSubsets)
{
    auto cfg = smallConfig(PmMode::CacheSim);
    cfg.crashPolicy = CrashPolicy::TornLines;
    cfg.crashSeed = 12345;
    PmDevice dev(cfg);
    // Dirty a full line with a recognizable pattern.
    std::uint8_t line[64];
    std::memset(line, 0xff, sizeof(line));
    dev.write(0, line, sizeof(line));
    dev.crash();
    dev.reviveAfterCrash();
    // Some words persisted, some did not (seed chosen to mix). Count.
    int persisted = 0;
    for (int w = 0; w < 8; ++w) {
        std::uint64_t v;
        dev.readDurable(w * 8, &v, 8);
        if (v == ~0ull)
            ++persisted;
        else
            EXPECT_EQ(v, 0u) << "torn write must be word-granular";
    }
    EXPECT_GT(persisted, 0);
    EXPECT_LT(persisted, 8);
}

TEST(PmDeviceCrashPolicyTest, RandomLinesKeepWholeLines)
{
    auto cfg = smallConfig(PmMode::CacheSim);
    cfg.crashPolicy = CrashPolicy::RandomLines;
    cfg.crashSeed = 99;
    PmDevice dev(cfg);
    std::uint8_t line[64];
    std::memset(line, 0xee, sizeof(line));
    for (int l = 0; l < 16; ++l)
        dev.write(l * 64, line, sizeof(line));
    dev.crash();
    dev.reviveAfterCrash();
    // Every line is all-0xee or all-zero; never mixed.
    for (int l = 0; l < 16; ++l) {
        std::uint8_t buf[64];
        dev.readDurable(l * 64, buf, 64);
        bool all_set = true, all_clear = true;
        for (auto b : buf) {
            all_set &= b == 0xee;
            all_clear &= b == 0;
        }
        EXPECT_TRUE(all_set || all_clear) << "line " << l;
    }
}

} // namespace
} // namespace fasp::pm
