/**
 * @file
 * Unit and stress tests of the observability layer: histogram bucket
 * boundaries / quantiles / merge, registry stability, folding PM-ledger
 * windows into the PhaseLedger, concurrent recording from many threads,
 * and the span profiler (ring accounting,
 * contention/heat folding, outlier reservoir, metrics-off negative
 * path).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "pm/phase.h"

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

TEST(HistogramTest, MergeAddsBucketsAndKeepsMax)
{
    Histogram a, b;
    a.record(1);
    a.record(6);
    b.record(6);
    b.record(4000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 1u + 6 + 6 + 4000);
    EXPECT_EQ(a.max(), 4000u);
    EXPECT_EQ(a.bucketCount(Histogram::bucketIndex(6)), 2u);
    EXPECT_EQ(a.bucketCount(Histogram::bucketIndex(4000)), 1u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_EQ(a.quantile(0.99), 0u);
}

// --- Registry ------------------------------------------------------------

TEST(MetricsRegistryTest, NamesResolveToStableAddresses)
{
    MetricsRegistry reg;
    Counter &c1 = reg.counter("test.counter");
    Counter &c2 = reg.counter("test.counter");
    EXPECT_EQ(&c1, &c2);
    c1.inc();
    c2.add(4);
    EXPECT_EQ(c1.value(), 5u);

    Gauge &g = reg.gauge("test.gauge");
    g.set(-3);
    g.add(1);
    EXPECT_EQ(reg.gauge("test.gauge").value(), -2);

    Histogram &h = reg.histogram("test.hist");
    h.record(9);
    EXPECT_EQ(&h, &reg.histogram("test.hist"));

    auto counters = reg.counters();
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0].first, "test.counter");
    EXPECT_EQ(counters[0].second, 5u);

    auto hists = reg.histograms();
    ASSERT_EQ(hists.size(), 1u);
    EXPECT_EQ(hists[0].second.count, 1u);
    ASSERT_EQ(hists[0].second.buckets.size(), 1u);

    reg.reset();
    EXPECT_EQ(reg.counter("test.counter").value(), 0u);
    EXPECT_EQ(reg.gauge("test.gauge").value(), 0);
    EXPECT_EQ(reg.histogram("test.hist").count(), 0u);
    // Names stay registered after reset.
    EXPECT_EQ(reg.counters().size(), 1u);
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
    PhaseLedger::global().fold("ENGINE_A", window);
    PhaseLedger::global().fold("ENGINE_A", window); // sweep: accumulate
    PhaseLedger::global().fold("ENGINE_B", window);

    auto entries = PhaseLedger::global().entries();
    ASSERT_EQ(entries.size(), 2u);
    std::size_t lf = static_cast<std::size_t>(pm::Component::LogFlush);
    EXPECT_EQ(entries[0].engine, "ENGINE_A");
    EXPECT_EQ(entries[0].phases[lf].flushes, 2u);
    ASSERT_EQ(entries[0].sites.size(), 1u);
    EXPECT_EQ(entries[0].sites[0].first, "s");
    EXPECT_EQ(entries[0].sites[0].second.flushes, 2u);
    EXPECT_EQ(entries[1].engine, "ENGINE_B");
    EXPECT_EQ(entries[1].phases[lf].flushes, 1u);
    PhaseLedger::global().reset();
    EXPECT_TRUE(PhaseLedger::global().entries().empty());
}

// --- Concurrent recording stress (run under TSan in CI) ------------------

TEST(ObsStressTest, ConcurrentRecordingFromManyThreads)
{
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kOpsPerThread = 20000;

    MetricsRegistry reg;
    Counter &counter = reg.counter("stress.ops");
    Histogram &hist = reg.histogram("stress.latency");
    static const char *kSites[] = {"stress.a", "stress.b", "stress.c"};
    pm::PhaseTracker window;
    window.start();

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i = 0; i < kOpsPerThread; ++i) {
                counter.inc();
                hist.record(i % 5000);
                pm::PhaseScope phase(static_cast<pm::Component>(
                    i % pm::kNumComponents));
                const char *prev = pm::setThreadSite(kSites[i % 3]);
                pm::billStore(64);
                pm::billFlush(10);
                pm::billFence(0);
                pm::setThreadSite(prev);
                // Concurrent registry lookups must also be safe.
                if (i % 4096 == 0)
                    reg.counter("stress.ops").inc();
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
    EXPECT_GE(counter.value(), kOps);
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
    EXPECT_EQ(prof.contendedSlotCount(), 2u);
    HistogramSnapshot merged = prof.latchWaitHist();
    EXPECT_EQ(merged.count, 2u);
    EXPECT_EQ(merged.max, 70000u);
    prof.resetLatchContention();
    EXPECT_EQ(prof.totalLatchWaits(), 0u);
    EXPECT_EQ(prof.latchWaitHist().count, 0u);
    // Contention reset leaves spans and outliers alone.
    EXPECT_EQ(prof.outliers().size(), kOutliersPerEngine);
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

    std::thread reader([&] {
        while (writing.load(std::memory_order_acquire)) {
            (void)prof.engineSummaries();
            (void)prof.latchContention();
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
                if (i % 13 == 0)
                    prof.recordPageConflict(i % 300);
            }
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

    EXPECT_EQ(prof.totalLatchWaits(), kSpans);
    EXPECT_EQ(prof.latchWaitHist().count, kSpans);

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

    spanBegin("FAST", 1, 42);
    spanPageAccess(7, true);
    spanLatchWait(3, 5000, true);
    spanSplit();
    spanDefrag();
    spanPageConflict(7);
    spanEnd(true, "in-place");

    EXPECT_EQ(prof.spansRecorded(), spans0);
    EXPECT_EQ(prof.outliers().size(), outliers0);
    EXPECT_EQ(prof.totalLatchWaits(), waits0);
    EXPECT_EQ(outliers0, 0u);
}

} // namespace
} // namespace fasp::obs
