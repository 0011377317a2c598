/**
 * @file
 * Unit and stress tests of the observability layer: histogram bucket
 * boundaries / quantiles, folding PM-ledger windows and their counters
 * into the PhaseLedger, concurrent recording from many threads, and the
 * span profiler (ring accounting, one ring per thread slot,
 * contention/heat folding, outlier reservoir, metrics-off negative
 * path).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "pm/phase.h"
#include "pm/thread_counters.h"

namespace fasp::obs {
namespace {

// --- Histogram buckets ---------------------------------------------------

TEST(HistogramTest, BucketBoundaries)
{
    // Bucket 0 holds exactly the value 0.
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperEdge(0), 0u);
    // Bucket i (i >= 1) holds [2^(i-1), 2^i - 1].
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(7), 3u);
    EXPECT_EQ(Histogram::bucketIndex(8), 4u);
    EXPECT_EQ(Histogram::bucketUpperEdge(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperEdge(2), 3u);
    EXPECT_EQ(Histogram::bucketUpperEdge(3), 7u);
    for (std::size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
        std::uint64_t lo = std::uint64_t{1} << (i - 1);
        std::uint64_t hi = Histogram::bucketUpperEdge(i);
        EXPECT_EQ(Histogram::bucketIndex(lo), i);
        EXPECT_EQ(Histogram::bucketIndex(hi), i);
        EXPECT_EQ(Histogram::bucketIndex(hi + 1), i + 1);
    }
    // The last bucket absorbs everything beyond its lower edge.
    constexpr std::size_t last = Histogram::kBuckets - 1;
    EXPECT_EQ(Histogram::bucketIndex(std::uint64_t{1} << (last - 1)),
              last);
    EXPECT_EQ(Histogram::bucketIndex(std::uint64_t{1} << 63), last);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), last);
}

TEST(HistogramTest, RecordCountSumMax)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    h.record(0);
    h.record(5);
    h.record(100);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 105u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(Histogram::bucketIndex(5)), 1u);
    EXPECT_EQ(h.bucketCount(Histogram::bucketIndex(100)), 1u);
}

TEST(HistogramTest, QuantilesReportBucketUpperEdge)
{
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.record(5); // all land in bucket 3 = [4, 7]
    EXPECT_EQ(h.p50(), 7u);
    EXPECT_EQ(h.p95(), 7u);
    EXPECT_EQ(h.p99(), 7u);

    // 90 small + 10 large: p50 stays small, p99 reports the tail.
    Histogram mix;
    for (int i = 0; i < 90; ++i)
        mix.record(2);
    for (int i = 0; i < 10; ++i)
        mix.record(1000);
    EXPECT_EQ(mix.p50(), 3u); // bucket 2 = [2, 3]
    EXPECT_EQ(mix.p99(), 1023u); // bucket 10 = [512, 1023]
}

TEST(HistogramTest, OverflowBucketReportsRecordedMax)
{
    Histogram h;
    std::uint64_t huge = std::uint64_t{1} << 62;
    h.record(huge);
    EXPECT_EQ(h.quantile(1.0), huge);
    EXPECT_EQ(h.p50(), huge);
}

TEST(HistogramTest, ResetClearsCountsAndMax)
{
    Histogram a;
    a.record(1);
    a.record(4000);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_EQ(a.quantile(0.99), 0u);
}

// --- PhaseLedger -------------------------------------------------------

TEST(PhaseLedgerTest, FoldAccumulatesPerEngine)
{
    PhaseLedger::global().reset();
    pm::PhaseTracker window;
    window.start();
    {
        pm::PhaseScope phase(pm::Component::LogFlush);
        const char *prev = pm::setThreadSite("s");
        pm::billFlush(0);
        pm::setThreadSite(prev);
    }
    window.stop();
    const NamedCount first[] = {{"z.last", 1}, {"a.first", 2}};
    const NamedCount sweep[] = {{"a.first", 3}, {"z.last", 0}};
    PhaseLedger::global().fold("ENGINE_A", window, first);
    PhaseLedger::global().fold("ENGINE_A", window, sweep); // accumulate
    PhaseLedger::global().fold("ENGINE_B", window, {});

    auto entries = PhaseLedger::global().entries();
    ASSERT_EQ(entries.size(), 2u);
    std::size_t lf = static_cast<std::size_t>(pm::Component::LogFlush);
    EXPECT_EQ(entries[0].engine, "ENGINE_A");
    EXPECT_EQ(entries[0].phases[lf].flushes, 2u);
    ASSERT_EQ(entries[0].sites.size(), 1u);
    EXPECT_EQ(entries[0].sites[0].first, "s");
    EXPECT_EQ(entries[0].sites[0].second.flushes, 2u);
    // Counters sum per engine, sorted by name.
    EXPECT_EQ(entries[0].counters,
              (std::map<std::string, std::uint64_t>{{"a.first", 5},
                                                    {"z.last", 1}}));
    EXPECT_EQ(entries[1].engine, "ENGINE_B");
    EXPECT_EQ(entries[1].phases[lf].flushes, 1u);
    EXPECT_TRUE(entries[1].counters.empty());

    // A zero count never creates its name.
    const NamedCount zero[] = {{"never", 0}};
    PhaseLedger::global().fold("ENGINE_B", window, zero);
    EXPECT_TRUE(PhaseLedger::global().entries()[1].counters.empty());
    PhaseLedger::global().reset();
    EXPECT_TRUE(PhaseLedger::global().entries().empty());
}

// --- Concurrent recording stress (run under TSan in CI) ------------------

TEST(ObsStressTest, ConcurrentRecordingFromManyThreads)
{
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kOpsPerThread = 20000;

    Histogram hist;
    static const char *kSites[] = {"stress.a", "stress.b", "stress.c"};
    pm::PhaseTracker window;
    window.start();

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i = 0; i < kOpsPerThread; ++i) {
                hist.record(i % 5000);
                pm::PhaseScope phase(static_cast<pm::Component>(
                    i % pm::kNumComponents));
                const char *prev = pm::setThreadSite(kSites[i % 3]);
                pm::billStore(64);
                pm::billFlush(10);
                pm::billFence(0);
                pm::setThreadSite(prev);
            }
        });
    }
    // A window read while the clients bill must be race-free too.
    pm::PhaseTracker probe;
    probe.start();
    probe.stop();
    for (auto &th : threads)
        th.join();
    window.stop();

    constexpr std::uint64_t kOps = kThreads * kOpsPerThread;
    EXPECT_EQ(hist.count(), kOps);

    pm::PmCell phases;
    for (std::size_t i = 0; i < pm::kNumComponents; ++i)
        phases += window.phase(static_cast<pm::Component>(i));
    EXPECT_EQ(phases.flushes, kOps);
    EXPECT_EQ(phases.fences, kOps);
    EXPECT_EQ(phases.storeBytes, 64 * kOps);
    EXPECT_EQ(phases.modelNs, 10 * kOps);
    EXPECT_EQ(phases.scopes, kOps);

    std::uint64_t site_flushes = 0;
    auto sites = window.sites();
    EXPECT_EQ(sites.size(), 3u);
    for (const auto &[name, cell] : sites)
        site_flushes += cell.flushes;
    EXPECT_EQ(site_flushes, kOps);
}

// --- Span profiler -------------------------------------------------------

TEST(SpanProfilerTest, ReservoirKeepsSlowestAndLatchHistMerges)
{
    SpanProfiler prof;
    for (std::uint64_t i = 1; i <= kOutliersPerEngine + 4; ++i) {
        TxSpan span;
        span.txId = i;
        span.engine = "FAST";
        span.engineCode = 1;
        span.committed = true;
        span.wallNs = i * 1000;
        span.phaseNs[0] = i * 1000;
        prof.recordSpan(span);
    }
    auto outs = prof.outliers();
    ASSERT_EQ(outs.size(), kOutliersPerEngine);
    // The slowest survive; the first (fastest) spans were evicted.
    for (const TxSpan &o : outs)
        EXPECT_GE(o.txId, 5u);
    // A span at the floor leaves the reservoir alone; a slower one
    // evicts the fastest kept span.
    TxSpan slow;
    slow.txId = 100;
    slow.engineCode = 1;
    slow.wallNs = 5000;
    prof.recordSpan(slow);
    EXPECT_EQ(prof.outliers().back().txId, 5u);
    slow.wallNs = 50000;
    prof.recordSpan(slow);
    EXPECT_EQ(prof.outliers().front().txId, 100u);
    EXPECT_EQ(prof.outliers().back().txId, 6u);

    prof.recordLatchWait(3, 100, false);
    prof.recordLatchWait(900, 70000, true);
    EXPECT_EQ(prof.totalLatchWaits(), 2u);
    EXPECT_EQ(prof.totalLatchConflicts(), 1u);
    EXPECT_EQ(prof.pageHeat().tracked, 2u);
    HistogramSnapshot merged = prof.latchWaitHist();
    EXPECT_EQ(merged.count, 2u);
    EXPECT_EQ(merged.max, 70000u);
    prof.resetLatchContention();
    EXPECT_EQ(prof.totalLatchWaits(), 0u);
    EXPECT_EQ(prof.latchWaitHist().count, 0u);
    // Contention reset also clears the pages' latch fields, and leaves
    // spans, outliers and page cells alone.
    EXPECT_EQ(prof.outliers().size(), kOutliersPerEngine);
    PageHeatSnapshot heat = prof.pageHeat();
    EXPECT_EQ(heat.tracked, 2u);
    for (const PageHeatEntry &e : heat.top) {
        EXPECT_EQ(e.latchWaits, 0u);
        EXPECT_EQ(e.latchWaitNs, 0u);
        EXPECT_EQ(e.conflicts, 0u);
    }
}

// Latch waits are keyed by page: each lands in its page's heat cell,
// and a contended page outside the k hottest still appears.
TEST(SpanProfilerTest, LatchWaitsLandInTheirPageHeatCell)
{
    SpanProfiler prof;
    for (std::uint64_t page = 0; page < 40; ++page) {
        for (std::uint64_t i = 0; i <= page; ++i)
            prof.recordPageAccess(page, false);
    }
    prof.recordLatchWait(39, 300, false);
    prof.recordLatchWait(39, 200, true);
    prof.recordLatchWait(5, 70, true); // outside the 32 hottest

    PageHeatSnapshot heat = prof.pageHeat(32);
    ASSERT_EQ(heat.top.size(), 33u);
    EXPECT_EQ(heat.top[0].page, 39u);
    EXPECT_EQ(heat.top[0].latchWaits, 2u);
    EXPECT_EQ(heat.top[0].latchWaitNs, 500u);
    EXPECT_EQ(heat.top[0].conflicts, 1u);
    EXPECT_EQ(heat.top[1].latchWaits, 0u);
    EXPECT_EQ(heat.top[32].page, 5u);
    EXPECT_EQ(heat.top[32].latchWaitNs, 70u);
}

// 8-thread stress over the span rings, contention aggregates, and the
// heat sketch, with a concurrent snapshot reader (run under TSan in
// CI). Invariant checked after the join: every recorded span is
// accounted for — per ring, retained spans + dropped == recorded.
TEST(ObsStressTest, SpanRingAndHeatSketchConcurrent)
{
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kSpansPerThread = 2000;

    SpanProfiler prof;
    std::atomic<bool> writing{true};
    // Every writer stays alive until all have recorded, so each holds
    // its own thread slot and so its own ring.
    std::latch all_recorded(kThreads);

    std::thread reader([&] {
        while (writing.load(std::memory_order_acquire)) {
            (void)prof.engineSummaries();
            (void)prof.latchWaitHist();
            (void)prof.pageHeat();
            (void)prof.outliers();
            (void)prof.ringStats();
            (void)prof.spansRecorded();
        }
    });

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kSpansPerThread; ++i) {
                TxSpan span;
                span.txId = t * kSpansPerThread + i;
                span.engine = "FAST";
                span.engineCode = 1;
                span.committed = i % 7 != 0;
                span.wallNs = 100 + (span.txId % 9000);
                span.phaseNs[0] = span.wallNs;
                span.latchWaits = 1;
                span.latchWaitNs = 50;
                prof.recordSpan(span);
                prof.recordLatchWait(t * 100 + (i % 3), 50,
                                     i % 11 == 0);
                prof.recordPageAccess(i % 300, i % 2 == 0);
            }
            all_recorded.arrive_and_wait();
        });
    }
    for (auto &th : threads)
        th.join();
    writing.store(false, std::memory_order_release);
    reader.join();

    constexpr std::uint64_t kSpans = kThreads * kSpansPerThread;
    EXPECT_EQ(prof.spansRecorded(), kSpans);

    auto engines = prof.engineSummaries();
    ASSERT_EQ(engines.size(), 1u);
    EXPECT_EQ(engines[0].spans, kSpans);
    EXPECT_EQ(engines[0].commits + engines[0].aborts, kSpans);
    EXPECT_EQ(engines[0].wallNs.count, kSpans);
    EXPECT_EQ(engines[0].latchWaits, kSpans);

    auto stats = prof.ringStats();
    ASSERT_EQ(stats.size(), kThreads);
    std::uint64_t recorded = 0;
    std::uint64_t retained_total = 0;
    for (const SpanRingStats &s : stats) {
        std::uint64_t retained =
            std::min<std::uint64_t>(s.recorded, s.capacity);
        EXPECT_EQ(retained + s.dropped, s.recorded);
        recorded += s.recorded;
        retained_total += retained;
    }
    EXPECT_EQ(recorded, kSpans);
    // The --trace timeline renders exactly the retained spans.
    EXPECT_EQ(prof.retainedSpans().size(), retained_total);

    // The contention totals and the merged histogram are exact; only
    // the heat sketch may lose counts.
    constexpr std::uint64_t kConflicts =
        kThreads * ((kSpansPerThread + 10) / 11);
    EXPECT_EQ(prof.totalLatchWaits(), kSpans);
    EXPECT_EQ(prof.totalLatchConflicts(), kConflicts);
    HistogramSnapshot waits = prof.latchWaitHist();
    EXPECT_EQ(waits.count, kSpans);
    EXPECT_EQ(waits.sum, kSpans * 50);

    PageHeatSnapshot heat = prof.pageHeat(kPageHeatSlots);
    EXPECT_LE(heat.tracked, kPageHeatSlots);
    std::uint64_t heat_hits = 0;
    for (const PageHeatEntry &e : heat.top)
        heat_hits += e.accesses;
    // Decay halves counts, so only a loose lower bound holds; every
    // access either landed in a cell or was counted as overflow.
    EXPECT_GT(heat_hits + heat.overflow, 0u);

    auto outs = prof.outliers();
    EXPECT_EQ(outs.size(), kOutliersPerEngine);
    for (const TxSpan &o : outs)
        EXPECT_GE(o.wallNs, 100u);
}

/** A committed FAST span of @p wallNs. */
TxSpan
fastSpan(std::uint64_t txId, std::uint64_t wallNs)
{
    TxSpan span;
    span.txId = txId;
    span.engine = "FAST";
    span.engineCode = 1;
    span.committed = true;
    span.wallNs = wallNs;
    span.phaseNs[0] = wallNs;
    return span;
}

// Rings are keyed by thread slot: eight threads that run one after
// another, each joined before the next starts, take the same slot one
// by one and leave one ring, not eight.
TEST(SpanProfilerTest, SequentialThreadsShareOneRing)
{
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kSpansPerThread = 100;
    SpanProfiler prof;
    for (std::size_t t = 0; t < kThreads; ++t) {
        std::thread([&prof, t] {
            for (std::uint64_t i = 0; i < kSpansPerThread; ++i)
                prof.recordSpan(fastSpan(t * kSpansPerThread + i, 100 + i));
        }).join();
    }
    auto stats = prof.ringStats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].recorded, kThreads * kSpansPerThread);
    EXPECT_EQ(stats[0].dropped,
              kThreads * kSpansPerThread - kSpanRingCapacity);
    EXPECT_EQ(prof.spansRecorded(), kThreads * kSpansPerThread);
    // The ring keeps the newest spans, oldest first: the last thread's.
    auto retained = prof.retainedSpans();
    ASSERT_EQ(retained.size(), kSpanRingCapacity);
    EXPECT_EQ(retained.back().span.txId, kThreads * kSpansPerThread - 1);
}

// Threads past the slot count share the overflow ring, several writers
// at once (run under TSan in CI).
TEST(SpanProfilerTest, ThreadsPastTheSlotsShareTheOverflowRing)
{
    constexpr std::size_t kThreads = pm::kThreadSlots + 4;
    constexpr std::uint64_t kSpansPerThread = 20;
    SpanProfiler prof;
    // Each thread takes its slot with its first span and holds it until
    // all have, so at least four find every slot taken.
    std::latch slotted(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&prof, &slotted, t] {
            prof.recordSpan(fastSpan(t * kSpansPerThread, 100));
            slotted.arrive_and_wait();
            for (std::uint64_t i = 1; i < kSpansPerThread; ++i)
                prof.recordSpan(fastSpan(t * kSpansPerThread + i, 100));
        });
    }
    for (std::thread &th : threads)
        th.join();

    auto stats = prof.ringStats();
    ASSERT_FALSE(stats.empty());
    EXPECT_LE(stats.size(), pm::kThreadSlots + 1);
    EXPECT_EQ(stats.back().ring, pm::kThreadSlots);
    EXPECT_GE(stats.back().recorded, 4 * kSpansPerThread);
    EXPECT_EQ(prof.spansRecorded(), kThreads * kSpansPerThread);
    EXPECT_EQ(prof.engineSummaries().at(0).spans,
              kThreads * kSpansPerThread);
}

// Negative path: with metrics off, the span free functions must leave
// the global profiler untouched — no spans, no outliers, no latch or
// heat folding (the "--metrics off ⇒ empty outlier capture" check).
TEST(SpanProfilerTest, MetricsOffRecordsNothing)
{
    ASSERT_FALSE(enabled());
    SpanProfiler &prof = SpanProfiler::global();
    std::uint64_t spans0 = prof.spansRecorded();
    std::size_t outliers0 = prof.outliers().size();
    std::uint64_t waits0 = prof.totalLatchWaits();
    std::uint64_t hist0 = prof.latchWaitHist().count;
    std::uint64_t tracked0 = prof.pageHeat().tracked;

    spanBegin("FAST", 1, 42);
    spanPageAccess(7, true);
    spanLatchWait(3, 5000, true);
    spanSplit();
    spanDefrag();
    spanEnd(true, "in-place");

    EXPECT_EQ(prof.spansRecorded(), spans0);
    EXPECT_EQ(prof.outliers().size(), outliers0);
    EXPECT_EQ(prof.totalLatchWaits(), waits0);
    EXPECT_EQ(prof.latchWaitHist().count, hist0);
    EXPECT_EQ(prof.pageHeat().tracked, tracked0);
    EXPECT_EQ(outliers0, 0u);
}

} // namespace
} // namespace fasp::obs
