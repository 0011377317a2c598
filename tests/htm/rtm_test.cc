/**
 * @file
 * Unit tests for the RTM emulation: visibility, atomicity under crash,
 * abort injection, and the single-cache-line working-set restriction.
 */

#include <gtest/gtest.h>

#include "htm/rtm.h"
#include "pm/device.h"

namespace fasp::htm {
namespace {

using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;

PmDevice
makeDevice(PmMode mode)
{
    PmConfig cfg;
    cfg.size = 1u << 16;
    cfg.mode = mode;
    return PmDevice(cfg);
}

TEST(RtmTest, CommitAppliesStagedWrites)
{
    auto dev = makeDevice(PmMode::Direct);
    Rtm rtm(dev, RtmConfig{});
    std::uint64_t value = 0xabcdef;
    bool committed = rtm.execute([&](RtmRegion &region) {
        region.write(0, &value, 8);
    });
    EXPECT_TRUE(committed);
    EXPECT_EQ(dev.readU64(0), 0xabcdefu);
    EXPECT_EQ(rtm.stats().commits, 1u);
}

TEST(RtmTest, NothingAppliedBeforeCommit)
{
    auto dev = makeDevice(PmMode::Direct);
    Rtm rtm(dev, RtmConfig{});
    std::uint64_t value = 9;
    rtm.execute([&](RtmRegion &region) {
        region.write(0, &value, 8);
        // Inside the region the device must still see the old value:
        // RTM stores are invisible until XEND.
        EXPECT_EQ(dev.readU64(0), 0u);
    });
    EXPECT_EQ(dev.readU64(0), 9u);
}

TEST(RtmTest, FallbackAfterRetryBudget)
{
    auto dev = makeDevice(PmMode::Direct);
    RtmConfig cfg;
    cfg.abortProbability = 1.0; // every attempt aborts
    cfg.maxRetries = 4;
    Rtm rtm(dev, cfg);
    std::uint64_t value = 1;
    bool committed = rtm.execute([&](RtmRegion &region) {
        region.write(0, &value, 8);
    });
    EXPECT_FALSE(committed);
    EXPECT_EQ(rtm.stats().begins, 5u);
    EXPECT_EQ(rtm.stats().abortsInjected, 5u);
    EXPECT_EQ(rtm.stats().fallbacks, 1u);
    EXPECT_EQ(dev.readU64(0), 0u) << "fallback must leave PM untouched";
}

TEST(RtmTest, InjectedAbortsEventuallyCommit)
{
    auto dev = makeDevice(PmMode::Direct);
    RtmConfig cfg;
    cfg.abortProbability = 0.8;
    cfg.seed = 31;
    Rtm rtm(dev, cfg);
    std::uint64_t value = 77;
    bool committed = rtm.execute([&](RtmRegion &region) {
        region.write(8, &value, 8);
    });
    EXPECT_TRUE(committed);
    EXPECT_GE(rtm.stats().begins, 1u);
    EXPECT_EQ(dev.readU64(8), 77u);
}

TEST(RtmTest, CommittedLineIsStillVolatileUntilFlush)
{
    auto dev = makeDevice(PmMode::CacheSim);
    Rtm rtm(dev, RtmConfig{});
    std::uint64_t value = 0x42;
    rtm.execute([&](RtmRegion &region) {
        region.write(0, &value, 8);
    });
    // Visible...
    EXPECT_EQ(dev.readU64(0), 0x42u);
    // ...but not durable until the caller flushes (paper footnote 2:
    // RTM gives atomicity, clflush after XEND gives durability).
    std::uint64_t durable;
    dev.readDurable(0, &durable, 8);
    EXPECT_EQ(durable, 0u);
    dev.clflush(0);
    dev.readDurable(0, &durable, 8);
    EXPECT_EQ(durable, 0x42u);
}

TEST(RtmTest, CrashAfterCommitBeforeFlushLosesWholeUpdate)
{
    auto dev = makeDevice(PmMode::CacheSim);
    Rtm rtm(dev, RtmConfig{});
    // Pre-populate and flush an initial header-like line.
    std::uint8_t init[64];
    for (int i = 0; i < 64; ++i)
        init[i] = 0x11;
    dev.write(0, init, 64);
    dev.flushRange(0, 64);

    std::uint8_t updated[64];
    for (int i = 0; i < 64; ++i)
        updated[i] = 0x22;
    rtm.execute([&](RtmRegion &region) {
        region.write(0, updated, 64);
    });
    dev.crash();
    dev.reviveAfterCrash();
    // The line must be entirely old: no torn mix.
    std::uint8_t buf[64];
    dev.readDurable(0, buf, 64);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(buf[i], 0x11);
}

TEST(RtmTest, MultipleWritesWithinOneLineAllowed)
{
    auto dev = makeDevice(PmMode::Direct);
    Rtm rtm(dev, RtmConfig{});
    std::uint16_t a = 1, b = 2, c = 3;
    bool committed = rtm.execute([&](RtmRegion &region) {
        region.write(0, &a, 2);
        region.write(30, &b, 2);
        region.write(62, &c, 2);
    });
    EXPECT_TRUE(committed);
    EXPECT_EQ(dev.readU16(0), 1);
    EXPECT_EQ(dev.readU16(30), 2);
    EXPECT_EQ(dev.readU16(62), 3);
}

TEST(RtmSingleLineTest, CrossLineWriteSetPanics)
{
    auto dev = makeDevice(PmMode::Direct);
    Rtm rtm(dev, RtmConfig{});
    std::uint64_t value = 1;
    EXPECT_DEATH(
        rtm.execute([&](RtmRegion &region) {
            region.write(60, &value, 8); // straddles a line boundary
        }),
        "RTM write set");
}

TEST(RtmSingleLineTest, TwoLinesPanics)
{
    auto dev = makeDevice(PmMode::Direct);
    Rtm rtm(dev, RtmConfig{});
    std::uint64_t value = 1;
    EXPECT_DEATH(
        rtm.execute([&](RtmRegion &region) {
            region.write(0, &value, 8);
            region.write(64, &value, 8);
        }),
        "two cache lines");
}

} // namespace
} // namespace fasp::htm
