// fasp-analyze: allow-file(raw-std-sync) -- lock-free histograms:
// monotonic counts only, never synchronization of engine state.
/**
 * @file
 * Observability metrics: latency histograms, the per-engine fold of
 * each measured phase (its PM-ledger window, which reproduces the
 * paper's Fig-8 per-phase flush/fence/cycle breakdown at runtime, and
 * its engine counters), and the recovery ledger (DESIGN.md §11).
 *
 * Cost model: histograms are relaxed atomics, and every record site is
 * guarded by obs::enabled() (one relaxed atomic-bool load), so a build
 * that never passes --metrics pays a predicted-not-taken branch per
 * instrumented operation. The engines count their events in their own
 * stats structs; bench_util folds them into the PhaseLedger once per
 * measured phase (DESIGN.md §11).
 *
 * Thread safety: Histogram is safe to record from any number of
 * threads. The ledgers take a Mutex per fold or snapshot. Histogram
 * snapshots are racy-but-atomic: each cell is read with a relaxed
 * load, so a snapshot taken while writers run is a consistent set of
 * individually-torn-free values, not a point-in-time cut.
 */

#ifndef FASP_OBS_METRICS_H
#define FASP_OBS_METRICS_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
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
};

/** One engine counter's count over a measured phase, under its
 *  exported name (a string literal). */
struct NamedCount
{
    const char *name;
    std::uint64_t value;
};

/**
 * Per-engine fold of measured phases. Benches run one engine at a time
 * inside a pm::PhaseTracker window; at the end of each measured phase
 * the runner folds that window and the engine's counters over it here
 * under the engine's name, in one call, and the exporters emit the
 * per-engine × per-phase breakdown (the runtime Fig 8), the per-site
 * one and the counters. Folding the same engine twice accumulates — a
 * bench sweeping latencies sums across the sweep.
 */
class PhaseLedger
{
  public:
    struct Entry
    {
        std::string engine;
        std::array<pm::PmCell, pm::kNumComponents> phases{};
        std::vector<std::pair<std::string, pm::PmCell>> sites;
        /** Counters by name; a name appears once its count is
         *  non-zero. */
        std::map<std::string, std::uint64_t> counters;
    };

    static PhaseLedger &global();

    /** Fold the stopped @p window's phase and site cells and the
     *  phase's @p counters (zero counts are skipped). */
    void fold(std::string_view engine, const pm::PhaseTracker &window,
              std::span<const NamedCount> counters) EXCLUDES(mu_);

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
 * One crash-recovery pass, filled by each log manager's recover() and
 * the engine layer, and folded into the RecoveryLedger. The four
 * phases follow the shape every recovery here shares:
 *   scan        walk the durable log/heap/ring and validate framing
 *   replay      apply surviving committed records to the image
 *   discard     drop uncommitted or stale records
 *   torn repair rebuild state damaged mid-write (free-list rebuild,
 *               flight-recorder slot zeroing, journal invalidation)
 */
struct RecoveryBreakdown
{
    std::uint64_t scanNs = 0;
    std::uint64_t replayNs = 0;
    std::uint64_t discardNs = 0;
    std::uint64_t repairNs = 0;

    std::uint64_t pagesScanned = 0;     //!< pages / frames / slots read
    std::uint64_t recordsReplayed = 0;  //!< committed records applied
    std::uint64_t recordsDiscarded = 0; //!< uncommitted/stale dropped
    std::uint64_t tornRecords = 0;      //!< CRC-invalid records repaired
};

/** Steady-clock nanoseconds from @p t0 to now (recovery phase timing). */
inline std::uint64_t
nsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/**
 * Per-engine recovery accounting: one RecoveryBreakdown per recover()
 * pass, its phases kept as histograms and its counters summed.
 * Unlike the hot-path metrics this ledger is NOT gated on
 * obs::enabled() — recovery is cold, and tools (fig12's recovery
 * bench, the exporters' `recovery` section) want the numbers even when
 * --metrics was not passed.
 */
class RecoveryLedger
{
  public:
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

    void record(std::string_view engine, const RecoveryBreakdown &pass)
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
