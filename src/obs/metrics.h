// fasp-analyze: allow-file(raw-std-sync) -- lock-free metrics registry:
// monotonic counters only, never synchronization of engine state.
/**
 * @file
 * Observability metrics: named counters, gauges, and latency
 * histograms, plus the per-engine fold of PM-ledger windows that
 * reproduces the paper's Fig-8 per-phase flush/fence/cycle breakdown
 * at runtime (DESIGN.md §11).
 *
 * Cost model: everything here is relaxed atomics, and every record
 * site is guarded by obs::enabled() (one relaxed atomic-bool load), so
 * a build that never passes --metrics pays a predicted-not-taken
 * branch per instrumented operation. The engines count their events
 * in their own stats structs; bench_util folds those into registry
 * counters after a run (DESIGN.md §11).
 *
 * Thread safety: Counter / Gauge / Histogram are safe to record from
 * any number of threads. MetricsRegistry name lookup
 * takes a Mutex — hot paths cache the returned reference (stable
 * address for the registry's lifetime) in a function-local static.
 * Snapshot/export reads are racy-but-atomic: each cell is read with a
 * relaxed load, so a snapshot taken while writers run is a consistent
 * set of individually-torn-free values, not a point-in-time cut.
 */

#ifndef FASP_OBS_METRICS_H
#define FASP_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "pm/phase.h"

namespace fasp::obs {

/** Global observability switch. Off by default; BenchArgs::parse turns
 *  it on when --metrics=PATH is given. Read it on every hot-path
 *  record site so the disabled build costs one relaxed load. */
bool enabled();

/** Flip the global switch (quiescent only: before threads start).
 *  While on, obs holds the pm phase clock, so PhaseScope settles the
 *  wall time spans partition. */
void setEnabled(bool on);

/** Monotonic event counter. */
class Counter
{
  public:
    void inc() { add(1); }

    void add(std::uint64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (signed: deltas allowed). */
class Gauge
{
  public:
    void set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void add(std::int64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Fixed-bucket latency histogram with power-of-two bucket edges.
 * Bucket 0 holds the value 0; bucket i (i ≥ 1) holds values in
 * [2^(i-1), 2^i - 1]; the last bucket additionally absorbs everything
 * larger. Percentiles report the upper edge of the bucket containing
 * the requested rank (the recorded maximum for the last bucket), so
 * they over-estimate by at most 2x — plenty for p50/p95/p99 spotting
 * of latency regressions, and recording stays two relaxed RMWs plus a
 * CAS-free max update.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 40;

    void record(std::uint64_t v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    std::uint64_t max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    std::uint64_t bucketCount(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /** Value at quantile @p q in [0, 1] (upper bucket edge; the
     *  recorded maximum for the overflow bucket). 0 when empty. */
    std::uint64_t quantile(double q) const;

    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p95() const { return quantile(0.95); }
    std::uint64_t p99() const { return quantile(0.99); }

    /** Fold @p other into this histogram (racy-but-atomic reads of
     *  @p other; see file comment). */
    void merge(const Histogram &other);

    void reset();

    /** Bucket index that @p v lands in. */
    static std::size_t bucketIndex(std::uint64_t v);

    /** Inclusive upper edge of bucket @p i. */
    static std::uint64_t bucketUpperEdge(std::size_t i);

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

/** Point-in-time histogram summary used by the exporters. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    /** (inclusive upper edge, count) for every non-empty bucket. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/**
 * Name → metric registry. Lookup is Mutex-guarded; returned references
 * are stable for the registry's lifetime (metrics are never removed),
 * so hot paths bind once:
 *
 *     static obs::Counter &c =
 *         obs::MetricsRegistry::global().counter("pager.page_allocs");
 *     if (obs::enabled()) c.inc();
 */
class MetricsRegistry
{
  public:
    /** Process-wide registry the wiring and exporters use. */
    static MetricsRegistry &global();

    Counter &counter(std::string_view name) EXCLUDES(mu_);
    Gauge &gauge(std::string_view name) EXCLUDES(mu_);
    Histogram &histogram(std::string_view name) EXCLUDES(mu_);

    /** Sorted (name, value) view of every counter. */
    std::vector<std::pair<std::string, std::uint64_t>>
    counters() const EXCLUDES(mu_);

    /** Sorted (name, value) view of every gauge. */
    std::vector<std::pair<std::string, std::int64_t>>
    gauges() const EXCLUDES(mu_);

    /** Sorted (name, snapshot) view of every histogram. */
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histograms() const EXCLUDES(mu_);

    /** Zero every registered metric (names stay registered). */
    void reset() EXCLUDES(mu_);

  private:
    mutable Mutex mu_;
    // unique_ptr storage gives metrics stable addresses across rehash.
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters_ GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
        gauges_ GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_ GUARDED_BY(mu_);
};

/**
 * Per-engine fold of PM-ledger windows. Benches run one engine at a
 * time inside a pm::PhaseTracker window; at the end of each run the
 * runner folds that window here under the engine's name, and the
 * exporters emit the per-engine × per-phase breakdown (the runtime Fig
 * 8) and the per-site one. Folding the same engine twice accumulates —
 * a bench sweeping latencies sums across the sweep.
 */
class PhaseLedger
{
  public:
    struct Entry
    {
        std::string engine;
        std::array<pm::PmCell, pm::kNumComponents> phases{};
        std::vector<std::pair<std::string, pm::PmCell>> sites;
    };

    static PhaseLedger &global();

    /** Fold the stopped @p window's phase and site cells. */
    void fold(std::string_view engine, const pm::PhaseTracker &window)
        EXCLUDES(mu_);

    std::vector<Entry> entries() const EXCLUDES(mu_);

    void reset() EXCLUDES(mu_);

  private:
    mutable Mutex mu_;
    std::vector<Entry> entries_ GUARDED_BY(mu_);
};

/** Phases of an instrumented crash-recovery pass (DESIGN.md §12). */
enum class RecoveryPhase : std::uint8_t {
    Scan = 0,
    Replay = 1,
    Discard = 2,
    TornRepair = 3,
};

constexpr std::size_t kNumRecoveryPhases = 4;

/** Printable phase name ("scan", "replay", ...). */
const char *recoveryPhaseName(RecoveryPhase phase);

/**
 * Per-engine recovery accounting: one sample per recover() pass, split
 * into the four recovery phases plus scan/replay/discard counters.
 * Unlike the hot-path metrics this ledger is NOT gated on
 * obs::enabled() — recovery is cold, and tools (fig12's recovery
 * bench, the exporters' `recovery` section) want the numbers even when
 * --metrics was not passed.
 */
class RecoveryLedger
{
  public:
    /** One recover() pass, as reported by the engine layer. */
    struct Sample
    {
        std::array<std::uint64_t, kNumRecoveryPhases> phaseNs{};
        std::uint64_t pagesScanned = 0;
        std::uint64_t recordsReplayed = 0;
        std::uint64_t recordsDiscarded = 0;
        std::uint64_t tornRecords = 0;
    };

    /** Exporter-facing view of one engine's accumulated recoveries. */
    struct EntrySnapshot
    {
        std::string engine;
        std::uint64_t recoveries = 0;
        std::uint64_t pagesScanned = 0;
        std::uint64_t recordsReplayed = 0;
        std::uint64_t recordsDiscarded = 0;
        std::uint64_t tornRecords = 0;
        std::array<HistogramSnapshot, kNumRecoveryPhases> phases{};
    };

    static RecoveryLedger &global();

    void record(std::string_view engine, const Sample &sample)
        EXCLUDES(mu_);

    std::vector<EntrySnapshot> entries() const EXCLUDES(mu_);

    void reset() EXCLUDES(mu_);

  private:
    struct Entry
    {
        std::string engine;
        std::uint64_t recoveries = 0;
        std::uint64_t pagesScanned = 0;
        std::uint64_t recordsReplayed = 0;
        std::uint64_t recordsDiscarded = 0;
        std::uint64_t tornRecords = 0;
        std::array<Histogram, kNumRecoveryPhases> phaseNs{};
    };

    mutable Mutex mu_;
    // unique_ptr storage: Histogram holds atomics (not movable).
    std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mu_);
};

/** Point-in-time summary of one Histogram (shared snapshot helper). */
HistogramSnapshot snapshotHistogram(const Histogram &h);

} // namespace fasp::obs

#endif // FASP_OBS_METRICS_H
