/**
 * @file
 * Flight-recorder tests (PR 5 satellite 3): format/attach/append
 * roundtrip, ring wraparound, torn-head negative fixtures — a record
 * only partially persisted at the crash point must be detected via its
 * CRC and skipped, never misparsed — plus the checker-cleanliness and
 * recorder-off zero-footprint guarantees.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "btree/btree.h"
#include "common/crc32.h"
#include "core/engine.h"
#include "obs/flight_recorder.h"
#include "pm/device.h"
#include "support/checker_guard.h"

namespace fasp::obs {
namespace {

using pm::CrashPolicy;
using pm::PmConfig;
using pm::PmDevice;
using pm::PmMode;

constexpr PmOffset kOff = 4096;
constexpr std::uint64_t kLen = 64 + 16 * 64; // 16 slots

PmConfig
cacheSimConfig(CrashPolicy policy = CrashPolicy::DropAll)
{
    PmConfig cfg;
    cfg.size = 64u << 10;
    cfg.mode = PmMode::CacheSim;
    cfg.crashPolicy = policy;
    cfg.crashSeed = 99;
    return cfg;
}

/** Read the recorder region out of the device's durable image. */
std::vector<std::uint8_t>
durableRegion(const PmDevice &device)
{
    std::vector<std::uint8_t> out(kLen);
    std::memcpy(out.data(), device.durableData() + kOff, kLen);
    return out;
}

TEST(FlightRecorderTest, FormatAttachAppendRoundtrip)
{
    PmDevice device(cacheSimConfig());
    FlightRecorder::formatRegion(device, kOff, kLen);

    FlightRecorder fr(device, kOff, kLen);
    EXPECT_EQ(fr.capacity(), 16u);
    auto stats = fr.attach();
    ASSERT_TRUE(stats.isOk());
    EXPECT_EQ(stats->validRecords, 0u);
    EXPECT_EQ(stats->tornRecords, 0u);

    fr.append(FlightEventType::OpBegin, 1, 7, 0, 0);
    fr.append(FlightEventType::PageSplit, 1, 7, 42, 0);
    fr.append(FlightEventType::CommitPoint, 1, 7, 0, 2);

    auto region = durableRegion(device);
    std::vector<std::uint32_t> torn;
    auto records =
        FlightRecorder::decodeRegion(region.data(), kLen, &torn);
    EXPECT_TRUE(torn.empty());
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].type, FlightEventType::OpBegin);
    EXPECT_EQ(records[0].txid, 7u);
    EXPECT_EQ(records[1].type, FlightEventType::PageSplit);
    EXPECT_EQ(records[1].pageId, 42u);
    EXPECT_EQ(records[2].type, FlightEventType::CommitPoint);
    EXPECT_EQ(records[2].aux, 2u);
    EXPECT_EQ(records[0].seq + 1, records[1].seq);
    EXPECT_EQ(records[1].seq + 1, records[2].seq);

    // A second attach resumes the sequence past the survivors.
    FlightRecorder fr2(device, kOff, kLen);
    auto stats2 = fr2.attach();
    ASSERT_TRUE(stats2.isOk());
    EXPECT_EQ(stats2->validRecords, 3u);
    EXPECT_EQ(stats2->maxSeq, records[2].seq);
    fr2.append(FlightEventType::Abort, 1, 8, 0, 0);
    auto region2 = durableRegion(device);
    auto records2 = FlightRecorder::decodeRegion(region2.data(), kLen);
    ASSERT_EQ(records2.size(), 4u);
    EXPECT_EQ(records2[3].seq, records[2].seq + 1);
}

TEST(FlightRecorderTest, WraparoundKeepsLatestRecords)
{
    PmDevice device(cacheSimConfig());
    FlightRecorder::formatRegion(device, kOff, kLen);
    FlightRecorder fr(device, kOff, kLen);
    ASSERT_TRUE(fr.attach().isOk());

    for (std::uint64_t i = 1; i <= 40; ++i)
        fr.append(FlightEventType::CommitPoint, 2, i, 0, 0);

    auto region = durableRegion(device);
    auto records = FlightRecorder::decodeRegion(region.data(), kLen);
    ASSERT_EQ(records.size(), 16u); // capacity
    EXPECT_EQ(records.front().txid, 25u);
    EXPECT_EQ(records.back().txid, 40u);
}

TEST(FlightRecorderTest, ManuallyCorruptedSlotIsTornNeverMisparsed)
{
    PmDevice device(cacheSimConfig());
    FlightRecorder::formatRegion(device, kOff, kLen);
    FlightRecorder fr(device, kOff, kLen);
    ASSERT_TRUE(fr.attach().isOk());
    for (std::uint64_t i = 1; i <= 5; ++i)
        fr.append(FlightEventType::CommitPoint, 1, i, 0, 0);

    // Corrupt one byte of the third record's txid, as a torn line
    // would. The CRC must catch it.
    PmOffset slot3 = kOff + 64 + 2 * 64;
    std::uint8_t byte = 0;
    device.read(slot3 + 16, &byte, 1);
    byte ^= 0xff;
    device.write(slot3 + 16, &byte, 1);
    device.flushRange(slot3 + 16, 1);
    device.sfence();

    auto region = durableRegion(device);
    std::vector<std::uint32_t> torn;
    auto records =
        FlightRecorder::decodeRegion(region.data(), kLen, &torn);
    ASSERT_EQ(torn.size(), 1u);
    EXPECT_EQ(torn[0], 2u);
    ASSERT_EQ(records.size(), 4u);
    for (const FlightRecord &rec : records)
        EXPECT_NE(rec.seq, 3u) << "torn record was misparsed as valid";

    // attach() repairs: the torn slot is zeroed and reported.
    FlightRecorder fr2(device, kOff, kLen);
    auto stats = fr2.attach();
    ASSERT_TRUE(stats.isOk());
    EXPECT_EQ(stats->tornRecords, 1u);
    EXPECT_EQ(stats->validRecords, 4u);
    auto region2 = durableRegion(device);
    std::vector<std::uint32_t> torn2;
    FlightRecorder::decodeRegion(region2.data(), kLen, &torn2);
    EXPECT_TRUE(torn2.empty()) << "repair left a torn slot behind";
}

TEST(FlightRecorderTest, CrashMidAppendUnderTornLines)
{
    // Sweep a crash over every persistence event of one append under
    // TornLines: whatever survives, decode must yield either the full
    // record intact or a torn/absent slot — never a misparse.
    for (std::uint64_t k = 0; k < 3; ++k) {
        PmDevice device(cacheSimConfig(CrashPolicy::TornLines));
        FlightRecorder::formatRegion(device, kOff, kLen);
        FlightRecorder fr(device, kOff, kLen);
        ASSERT_TRUE(fr.attach().isOk());
        fr.append(FlightEventType::OpBegin, 1, 11, 0, 0);

        pm::PointCrashInjector injector(device.eventCount() + k);
        device.setCrashInjector(&injector);
        bool crashed = false;
        try {
            fr.append(FlightEventType::CommitPoint, 1, 11, 0, 777);
        } catch (const pm::CrashException &) {
            crashed = true;
        }
        device.setCrashInjector(nullptr);
        ASSERT_TRUE(crashed) << "append has 3 events, k=" << k;

        auto region = durableRegion(device);
        std::vector<std::uint32_t> torn;
        auto records =
            FlightRecorder::decodeRegion(region.data(), kLen, &torn);
        ASSERT_GE(records.size(), 1u);
        EXPECT_EQ(records[0].txid, 11u);
        for (const FlightRecord &rec : records) {
            if (rec.seq == records[0].seq + 1) {
                // The interrupted record decoded as valid: it must be
                // byte-exact, not a partial write that slipped past
                // the CRC.
                EXPECT_EQ(rec.type, FlightEventType::CommitPoint);
                EXPECT_EQ(rec.txid, 11u);
                EXPECT_EQ(rec.aux, 777u);
            }
        }
        for (std::uint32_t slot : torn)
            EXPECT_EQ(slot, 1u) << "tearing leaked beyond the slot";

        // Recovery path: revive, attach (repairing any torn slot),
        // and keep appending.
        device.reviveAfterCrash();
        FlightRecorder fr2(device, kOff, kLen);
        auto stats = fr2.attach();
        ASSERT_TRUE(stats.isOk());
        fr2.append(FlightEventType::RecoveryEnd, 1, 0, 0, 0);
        auto region2 = durableRegion(device);
        std::vector<std::uint32_t> torn2;
        auto records2 =
            FlightRecorder::decodeRegion(region2.data(), kLen, &torn2);
        EXPECT_TRUE(torn2.empty());
        EXPECT_EQ(records2.back().type, FlightEventType::RecoveryEnd);
    }
}

TEST(FlightRecorderTest, AppendsAreCheckerCleanInsideTransactions)
{
    PmDevice device(cacheSimConfig());
    FlightRecorder::formatRegion(device, kOff, kLen);
    FlightRecorder fr(device, kOff, kLen);
    {
        testsupport::PmCheckerGuard guard(device);
        ASSERT_TRUE(fr.attach().isOk());
        // Appends inside a checker transaction window must count as
        // flushed-and-fenced by the commit point.
        device.txBegin();
        fr.append(FlightEventType::OpBegin, 1, 5, 0, 0);
        fr.append(FlightEventType::CommitPoint, 1, 5, 0, 1);
        device.txCommitPoint();
        device.txEnd(/*committed=*/true);
        // Guard destructor asserts a violation-free report.
    }
}

TEST(FlightRecorderTest, RecorderOffEnginePathHasNoFootprint)
{
    // The acceptance criterion's recorder-off path: the engine never
    // constructs a recorder, so per-transaction cost is one nullptr
    // check — and the PM event stream is byte-identical between two
    // runs with the feature compiled in but disabled.
    ASSERT_FALSE(FlightRecorder::enabled());
    auto run = [](std::uint64_t &events) {
        PmConfig cfg;
        cfg.size = 16u << 20;
        cfg.mode = PmMode::Direct;
        PmDevice device(cfg);
        core::EngineConfig ecfg;
        ecfg.kind = core::EngineKind::Fast;
        ecfg.format.logLen = 1u << 20;
        auto engine = core::Engine::create(device, ecfg, true);
        ASSERT_TRUE(engine.isOk());
        EXPECT_EQ((*engine)->flightRecorder(), nullptr);
        auto tree = (*engine)->createTree(1);
        ASSERT_TRUE(tree.isOk());
        for (std::uint64_t key = 1; key <= 50; ++key) {
            std::array<std::uint8_t, 32> v{};
            v[0] = static_cast<std::uint8_t>(key);
            ASSERT_TRUE((*engine)
                            ->insert(*tree, key,
                                     std::span<const std::uint8_t>(v))
                            .isOk());
        }
        // Nothing observes the event index here, so it stands still;
        // count the same stores, flushes and fences in PmStats.
        const pm::PmStats stats = device.stats();
        events = stats.stores + stats.clflushes + stats.fences;
    };
    std::uint64_t events_a = 0;
    std::uint64_t events_b = 0;
    run(events_a);
    run(events_b);
    EXPECT_EQ(events_a, events_b);
    EXPECT_GT(events_a, 0u);
}

TEST(FlightRecorderTest, EngineEmitsOpEventsWhenEnabled)
{
    FlightRecorder::setEnabled(true);
    PmConfig cfg;
    cfg.size = 16u << 20;
    cfg.mode = PmMode::CacheSim;
    PmDevice device(cfg);
    core::EngineConfig ecfg;
    ecfg.kind = core::EngineKind::Fast;
    ecfg.format.logLen = 1u << 20;
    auto engine_res = core::Engine::create(device, ecfg, true);
    ASSERT_TRUE(engine_res.isOk());
    auto engine = std::move(*engine_res);
    ASSERT_NE(engine->flightRecorder(), nullptr);
    auto tree_res = engine->createTree(1);
    ASSERT_TRUE(tree_res.isOk());

    std::array<std::uint8_t, 32> v{};
    ASSERT_TRUE(
        engine->insert(*tree_res, 1, std::span<const std::uint8_t>(v))
            .isOk());
    FlightRecorder::setEnabled(false);

    // The committed insert must have left an OpBegin/CommitPoint pair
    // in the durable region.
    const std::uint8_t *base = device.durableData();
    // Region location comes from the superblock (offset 44/52).
    std::uint64_t fr_off = 0;
    std::uint64_t fr_len = 0;
    std::memcpy(&fr_off, base + 44, 8);
    std::memcpy(&fr_len, base + 52, 8);
    ASSERT_NE(fr_len, 0u);
    auto records =
        FlightRecorder::decodeRegion(base + fr_off, fr_len);
    bool begin_seen = false;
    bool commit_seen = false;
    std::uint64_t last_txid = 0;
    for (const FlightRecord &rec : records) {
        if (rec.type == FlightEventType::OpBegin) {
            begin_seen = true;
            last_txid = rec.txid;
        }
        if (rec.type == FlightEventType::CommitPoint &&
            rec.txid == last_txid) {
            commit_seen = true;
        }
    }
    EXPECT_TRUE(begin_seen);
    EXPECT_TRUE(commit_seen);
}

} // namespace
} // namespace fasp::obs
