// fasp-analyze: allow-file(raw-std-sync) -- the span ring and the heat
// sketch are lock-free recording structures on the engines' hot paths;
// they record scheduling, never participate in it.
/**
 * @file
 * Per-transaction span profiler (DESIGN.md §17).
 *
 * Every transaction — on all five engines — records one fixed-size
 * TxSpan: begin/commit wall ns partitioned into pm::Component
 * sub-phases, PCAS attempt/retry/help counts, clflush/sfence counts,
 * modelled PM ns and WAL appends — all deltas of the calling thread's
 * PM ledger (pm/phase.h) between begin and end — plus latch-acquire
 * wait per LatchTable slot and split/defrag counts. Spans land in a
 * per-thread lock-free span ring and fold into:
 *
 *  - a contention profiler: per-latch-slot wait histograms plus
 *    aggregate wait/conflict counters (which latch is hot, and how
 *    long acquirers spin on it);
 *  - a page-hotness heatmap: a top-K decayed sketch of per-page
 *    access/dirty/conflict counts, O(K) memory however many pages the
 *    database grows;
 *  - a p99 outlier capture: a small reservoir of the slowest spans per
 *    engine, each carrying its full sub-phase timeline.
 *
 * The span rings are the only per-thread event rings: the --trace
 * chrome://tracing dump renders their retained spans at their real
 * begin timestamps, one track per ring.
 *
 * Everything exports through obs/export.cc (JSON sections `spans`,
 * `latch_contention`, `page_heat`, `outliers`; Prometheus
 * `fasp_span_*` / `fasp_latch_*` / `fasp_page_hot_*`) and renders via
 * tools/fasp-profile.
 *
 * Off cost: every hot-path entry point starts with the same relaxed
 * obs::enabled() load the counters use and returns immediately when
 * metrics are off; the profiler and its rings are only ever
 * materialised after the first enabled spanBegin().
 *
 * Thread safety: the span free functions touch only thread-local state
 * plus lock-free/atomic profiler structures; recording is safe from
 * any number of threads. Snapshot accessors are safe concurrently with
 * recording (they read atomics), except retainedSpans()/reset(),
 * which are quiescent-only.
 */

#ifndef FASP_OBS_SPAN_H
#define FASP_OBS_SPAN_H

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "pm/phase.h"

namespace fasp::obs {

/** Latch slots the contention profiler tracks; must cover
 *  LatchTable's stripe count (asserted where the hook is wired). */
inline constexpr std::size_t kSpanLatchSlots = 1024;

/** Cells in the page-hotness sketch (the K of top-K). */
inline constexpr std::size_t kPageHeatSlots = 128;

/** Slowest spans kept per engine by the outlier reservoir. */
inline constexpr std::size_t kOutliersPerEngine = 8;

/** Spans retained per thread ring before wraparound. */
inline constexpr std::size_t kSpanRingCapacity = 256;

/** Engine-code slots (recorderEngineCode() is EngineKind + 1 ≤ 5). */
inline constexpr std::size_t kSpanEngineSlots = 8;

/**
 * One profiled transaction. Fixed size; label pointers are string
 * literals (engine names, commit-path names).
 */
struct TxSpan
{
    std::uint64_t txId = 0;
    const char *engine = nullptr;   //!< engine name literal
    std::uint8_t engineCode = 0;    //!< recorderEngineCode(), 1-based
    bool committed = false;
    const char *commitPath = nullptr; //!< "in-place"/"logged"/... or null

    std::uint64_t beginNs = 0;      //!< steady-clock ns at begin
    std::uint64_t wallNs = 0;       //!< begin → end wall ns
    std::uint64_t modelNs = 0;      //!< modelled PM ns charged in-span

    /** Wall ns per pm::Component, settled at every PhaseScope
     *  boundary; sums to wallNs (index 0 holds untagged time). */
    std::array<std::uint64_t, pm::kNumComponents> phaseNs{};

    std::uint32_t latchWaits = 0;     //!< acquires that spun or failed
    std::uint32_t latchConflicts = 0; //!< acquires that failed outright
    std::uint64_t latchWaitNs = 0;    //!< total ns spent waiting
    std::uint32_t hotLatchSlot = 0;   //!< slot of the longest wait
    std::uint64_t hotLatchWaitNs = 0; //!< that longest wait, ns

    std::uint32_t pcasAttempts = 0;
    std::uint32_t pcasRetries = 0;
    std::uint32_t pcasHelps = 0;

    std::uint32_t flushes = 0;  //!< clflushes issued in-span
    std::uint32_t fences = 0;   //!< sfences issued in-span
    std::uint32_t walAppends = 0; //!< LogFlush scopes entered in-span

    std::uint32_t splits = 0;
    std::uint32_t defrags = 0;
    std::uint32_t pageAccesses = 0;
    std::uint32_t pageDirty = 0;
};

// --- Hot-path recording API -------------------------------------------

/** Open a span for the calling thread's transaction. No-op (one
 *  relaxed load) unless obs::enabled(). */
void spanBegin(const char *engine, std::uint8_t engineCode,
               std::uint64_t txId);

/** Close the calling thread's span (if one is open): settle the final
 *  sub-phase, compute the device/PCAS deltas, push the span into the
 *  thread ring, fold the aggregates, and consider outlier capture. */
void spanEnd(bool committed, const char *commitPath);

/** A latch acquire on @p slot spun (@p waitNs > 0) or failed
 *  (@p conflict). Feeds the per-slot wait histogram and, if a span is
 *  open, its latch fields. Called by LatchTable only when enabled. */
void spanLatchWait(std::size_t slot, std::uint64_t waitNs,
                   bool conflict);

/** A page was handed to the transaction (@p dirty: for writing).
 *  Feeds the heat sketch and the open span's counters. */
void spanPageAccess(std::uint64_t pageId, bool dirty);

/** A latch conflict aborted work on @p pageId (page-level conflict
 *  attribution for the heat sketch; slot-level lives in
 *  spanLatchWait). */
void spanPageConflict(std::uint64_t pageId);

/** The open span triggered a leaf/page split (new page allocation). */
void spanSplit();

/** The open span triggered an on-demand page defragmentation. */
void spanDefrag();

// --- Snapshot types (export side) -------------------------------------

/** Aggregate of every span recorded for one engine. */
struct EngineSpanSummary
{
    const char *engine = nullptr;
    std::uint64_t spans = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    HistogramSnapshot wallNs;
    std::array<std::uint64_t, pm::kNumComponents> phaseNs{};
    std::uint64_t latchWaits = 0;
    std::uint64_t latchWaitNs = 0;
    std::uint64_t latchConflicts = 0;
    std::uint64_t pcasAttempts = 0;
    std::uint64_t pcasRetries = 0;
    std::uint64_t pcasHelps = 0;
    std::uint64_t flushes = 0;
    std::uint64_t fences = 0;
    std::uint64_t modelNs = 0;
    std::uint64_t walAppends = 0;
    std::uint64_t splits = 0;
    std::uint64_t defrags = 0;
    std::uint64_t pageAccesses = 0;
    std::uint64_t pageDirty = 0;
};

/** Wait profile of one contended latch slot. */
struct LatchSlotSummary
{
    std::size_t slot = 0;
    std::uint64_t waits = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t waitNs = 0;
    HistogramSnapshot hist; //!< wait-ns distribution
};

/** One page of the hotness sketch. */
struct PageHeatEntry
{
    std::uint64_t page = 0;
    std::uint64_t accesses = 0;
    std::uint64_t dirty = 0;
    std::uint64_t conflicts = 0;
};

/** Heat-sketch snapshot: the top pages plus loss accounting. */
struct PageHeatSnapshot
{
    std::vector<PageHeatEntry> top; //!< accesses desc, page asc on tie
    std::uint64_t tracked = 0;      //!< live cells
    std::uint64_t overflow = 0;     //!< accesses the full sketch missed
    std::uint64_t decays = 0;       //!< halving passes applied
};

/** Per-ring occupancy of the span rings. */
struct SpanRingStats
{
    std::size_t ring = 0;
    std::size_t capacity = 0;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
};

/** One retained span and the index of the thread ring holding it. */
struct RingSpan
{
    std::size_t ring = 0;
    TxSpan span;
};

// --- The profiler ------------------------------------------------------

/**
 * Process-wide sink for spans; see the file comment. A fresh instance
 * may also be constructed directly (tests, the export demo) and fed
 * through recordSpan()/recordLatchWait()/recordPageAccess() for
 * deterministic fixtures.
 */
class SpanProfiler
{
  public:
    SpanProfiler();

    /** The profiler the hot-path free functions record into. Lazily
     *  constructed on first use, i.e. never in a metrics-off run. */
    static SpanProfiler &global();

    // -- Recording (hot-path free functions + deterministic fixtures) --

    /** Fold one finished span: thread ring, engine aggregates, outlier
     *  reservoir. */
    void recordSpan(const TxSpan &span);

    /** Fold one latch wait into the contention profile. */
    void recordLatchWait(std::size_t slot, std::uint64_t waitNs,
                         bool conflict);

    /** Fold one page access into the heat sketch. */
    void recordPageAccess(std::uint64_t pageId, bool dirty);

    /** Fold one page-level conflict into the heat sketch. */
    void recordPageConflict(std::uint64_t pageId);

    // -- Snapshots (export side) --

    /** Engines with at least one span, in engine-code order. */
    std::vector<EngineSpanSummary> engineSummaries() const;

    /** Contended slots (waits > 0), by total wait ns descending (slot
     *  ascending on ties), at most @p maxSlots. */
    std::vector<LatchSlotSummary>
    latchContention(std::size_t maxSlots = 16) const;

    std::uint64_t totalLatchWaits() const;
    std::uint64_t totalLatchConflicts() const;
    std::uint64_t contendedSlotCount() const;

    /** Merged wait-ns distribution across every latch slot — the
     *  per-point "latch-p95(ns)" column the bench tables print. */
    HistogramSnapshot latchWaitHist() const;

    /** Zero the contention profile only (slot aggregates and
     *  histograms), leaving spans / heat / outliers untouched, so a
     *  bench can scope the latch columns to one perf point.
     *  Quiescent-only, like reset(). */
    void resetLatchContention();

    /** Top-@p k sketch entries plus loss accounting. */
    PageHeatSnapshot pageHeat(std::size_t k = 32) const;

    /** Every captured outlier, engine-code order then wall ns
     *  descending. Safe concurrently with recording. */
    std::vector<TxSpan> outliers() const EXCLUDES(mu_);

    /** Spans recorded across all rings / threads. */
    std::uint64_t spansRecorded() const EXCLUDES(mu_);

    /** Per-ring occupancy, registration order. */
    std::vector<SpanRingStats> ringStats() const EXCLUDES(mu_);

    /** Retained spans of every thread ring, ring-registration order,
     *  oldest first within a ring. Quiescent-only (plain-struct rings;
     *  join writers first). */
    std::vector<RingSpan> retainedSpans() const EXCLUDES(mu_);

    /** Forget everything. Quiescent-only. */
    void reset() EXCLUDES(mu_);

  private:
    /** Single-writer per-thread ring of finished spans. record() is
     *  the owning thread's; stats reads are atomic; snapshot of the
     *  payload is quiescent-only (spans are plain structs). */
    struct SpanRing
    {
        std::array<TxSpan, kSpanRingCapacity> slots{};
        std::atomic<std::uint64_t> head{0};
        std::atomic<std::uint64_t> dropped{0};

        void record(const TxSpan &span);
    };

    /** Per-engine atomic aggregates. */
    struct EngineAgg
    {
        std::atomic<const char *> engine{nullptr};
        std::atomic<std::uint64_t> spans{0};
        std::atomic<std::uint64_t> commits{0};
        std::atomic<std::uint64_t> aborts{0};
        Histogram wallNs;
        std::array<std::atomic<std::uint64_t>, pm::kNumComponents>
            phaseNs{};
        std::atomic<std::uint64_t> latchWaits{0};
        std::atomic<std::uint64_t> latchWaitNs{0};
        std::atomic<std::uint64_t> latchConflicts{0};
        std::atomic<std::uint64_t> pcasAttempts{0};
        std::atomic<std::uint64_t> pcasRetries{0};
        std::atomic<std::uint64_t> pcasHelps{0};
        std::atomic<std::uint64_t> flushes{0};
        std::atomic<std::uint64_t> fences{0};
        std::atomic<std::uint64_t> modelNs{0};
        std::atomic<std::uint64_t> walAppends{0};
        std::atomic<std::uint64_t> splits{0};
        std::atomic<std::uint64_t> defrags{0};
        std::atomic<std::uint64_t> pageAccesses{0};
        std::atomic<std::uint64_t> pageDirty{0};
    };

    /** One latch slot's contention profile. */
    struct LatchSlotAgg
    {
        std::atomic<std::uint64_t> waits{0};
        std::atomic<std::uint64_t> conflicts{0};
        std::atomic<std::uint64_t> waitNs{0};
    };

    /** Open-addressed top-K decayed sketch cell. key = pageId + 1
     *  (0 = empty); claimed by CAS, counts relaxed. */
    struct HeatCell
    {
        std::atomic<std::uint64_t> key{0};
        std::atomic<std::uint64_t> accesses{0};
        std::atomic<std::uint64_t> dirty{0};
        std::atomic<std::uint64_t> conflicts{0};
    };

    /** Outlier reservoir of one engine. floor is the smallest kept
     *  wall ns once full (0 before) — the lock-free cheap-reject. */
    struct Reservoir
    {
        std::atomic<std::uint64_t> floor{0};
        std::vector<TxSpan> entries; // guarded by mu_
    };

    SpanRing &threadRing() EXCLUDES(mu_);
    HeatCell *findHeatCell(std::uint64_t pageId);
    void maybeDecayHeat();
    void considerOutlier(const TxSpan &span) EXCLUDES(mu_);

    const std::uint64_t id_; //!< distinguishes profilers in memos
    std::array<EngineAgg, kSpanEngineSlots> engines_;
    std::unique_ptr<LatchSlotAgg[]> latchAggs_;   //!< kSpanLatchSlots
    std::unique_ptr<Histogram[]> latchHists_;     //!< kSpanLatchSlots
    std::array<HeatCell, kPageHeatSlots> heat_;
    std::atomic<std::uint64_t> heatTicks_{0};
    std::atomic<std::uint64_t> heatOverflow_{0};
    std::atomic<std::uint64_t> heatDecays_{0};

    mutable Mutex mu_;
    std::deque<std::unique_ptr<SpanRing>> rings_ GUARDED_BY(mu_);
    std::array<Reservoir, kSpanEngineSlots> reservoirs_;
};

} // namespace fasp::obs

#endif // FASP_OBS_SPAN_H
