// fasp-analyze: allow-file(raw-std-sync) -- the RTM emulation shim IS the
// intercepted wrapper; its internals must not recurse into the hooks.
/**
 * @file
 * Software emulation of Intel Restricted Transactional Memory (RTM).
 *
 * The paper uses RTM (XBEGIN / XEND / XABORT) for two purposes at once:
 * making the update of a slot header that fits in one cache line
 * failure-atomic, and serializing concurrent clients touching the same
 * header — RTM is FAST's concurrency control. Stores inside an RTM
 * region stay invisible (in the write-combining store buffer) until
 * XEND; restricting the write set to a single cache line means the
 * header either persists whole (after the subsequent clflush) or not at
 * all.
 *
 * This emulation preserves both contracts: writes made through an
 * RtmRegion are staged in a volatile buffer and applied to the PM
 * device only when the region commits, and the apply step acquires
 * per-cache-line locks from a shared table so two regions whose write
 * sets overlap conflict — one commits, the other takes a *contention
 * abort* and re-executes, exactly like real RTM's cache-coherence
 * conflict detection (just with coarser, commit-time granularity).
 *
 * Aborts therefore come in two flavours, counted separately for the
 * ablation table: injected (the probabilistic model of interrupts and
 * sharing-induced aborts) and contention (another thread held the
 * write-set line). FAST's header publish never issues XABORT and its
 * one-line write set never exceeds RTM's capacity, so neither of those
 * abort classes is modelled.
 */

#ifndef FASP_HTM_RTM_H
#define FASP_HTM_RTM_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace fasp::pm {
class PmDevice;
} // namespace fasp::pm

namespace fasp::htm {

/** Abort/retry policy of the emulated RTM. */
struct RtmConfig
{
    /** Probability that any single attempt aborts (injected). Models
     *  the abort sources the emulation cannot observe: interrupts,
     *  false sharing, TLB misses. */
    double abortProbability = 0.0;

    /** Attempts before execute() gives up and reports fallback. The
     *  paper's default handler retries until success; a finite value
     *  models the alternative fallback-to-logging handler. */
    unsigned maxRetries = 1u << 20;

    /** Seed for the abort-injection RNG. */
    std::uint64_t seed = 7;
};

/**
 * Counters describing RTM behaviour (ablation Table C). Relaxed
 * atomics: concurrent clients of one engine update them tear-free;
 * copies snapshot field-by-field.
 */
struct RtmStats
{
    std::atomic<std::uint64_t> begins{0};    //!< attempts started
    std::atomic<std::uint64_t> commits{0};   //!< attempts that committed
    std::atomic<std::uint64_t> aborts{0};    //!< attempts that aborted
    std::atomic<std::uint64_t> fallbacks{0}; //!< execute() calls that
                                             //!< gave up

    // Abort breakdown (sums to `aborts`).
    std::atomic<std::uint64_t> abortsInjected{0};   //!< modelled
    std::atomic<std::uint64_t> abortsContention{0}; //!< write-set line
                                                    //!< held by another
                                                    //!< thread

    RtmStats() = default;
    RtmStats(const RtmStats &other) { copyFrom(other); }

    RtmStats &operator=(const RtmStats &other)
    {
        copyFrom(other);
        return *this;
    }

    void reset() { *this = RtmStats{}; }

  private:
    void copyFrom(const RtmStats &other)
    {
        begins = other.begins.load(std::memory_order_relaxed);
        commits = other.commits.load(std::memory_order_relaxed);
        aborts = other.aborts.load(std::memory_order_relaxed);
        fallbacks = other.fallbacks.load(std::memory_order_relaxed);
        abortsInjected =
            other.abortsInjected.load(std::memory_order_relaxed);
        abortsContention =
            other.abortsContention.load(std::memory_order_relaxed);
    }
};

/**
 * Staging area handed to the transactional body. Writes are buffered and
 * only reach the device if the region commits.
 */
class RtmRegion
{
  public:
    /** Stage a store of @p len bytes at device offset @p off. */
    void write(PmOffset off, const void *src, std::size_t len);

  private:
    friend class Rtm;

    struct StagedWrite
    {
        PmOffset off;
        std::vector<std::uint8_t> bytes;
    };

    std::vector<StagedWrite> writes_;
};

/**
 * RTM execution engine bound to one PM device. execute() is safe to
 * call from many threads at once; setConfig()/reset of stats are
 * quiescent-only.
 */
class Rtm
{
  public:
    Rtm(pm::PmDevice &device, const RtmConfig &config);

    /**
     * Run @p body transactionally. The body stages writes through the
     * region; on commit they are applied to the device as ordinary
     * (volatile) stores, which the caller must then clflush + sfence to
     * make durable. The apply is atomic with respect to other execute()
     * calls whose write sets overlap (per-line commit locks).
     *
     * The body may run several times (once per attempt) and must be
     * idempotent up to its staged writes.
     *
     * The write set must lie in one cache line (the paper restricts
     * the RTM working set to one line because PM cannot persist two
     * lines atomically); a wider one panics.
     *
     * @return true if an attempt committed; false if the retry budget
     *         was exhausted (caller falls back to slot-header logging).
     */
    bool execute(const std::function<void(RtmRegion &)> &body);

    RtmStats &stats() { return stats_; }
    const RtmStats &stats() const { return stats_; }

    const RtmConfig &config() const { return config_; }

    /** Replace the abort policy (used by the abort-injection bench;
     *  quiescent only). */
    void setConfig(const RtmConfig &config);

  private:
    /** Outcome of one full attempt (body + checks + apply). */
    enum class Outcome : std::uint8_t {
        Committed,
        AbortInjected,
        AbortContention,
    };

    Outcome attemptOnce(const std::function<void(RtmRegion &)> &body);
    /** Apply the staged writes under the line lock of @p line;
     *  false if another thread holds it (contention abort). */
    bool tryApply(const RtmRegion &region, PmOffset line);
    /** The one cache line a region's write set touches; panics if the
     *  writes span more than one. */
    static PmOffset writeLine(const RtmRegion &region);
    bool rollInjectedAbort();

    pm::PmDevice &device_;
    RtmConfig config_;
    Mutex rngMu_;
    Rng rng_ GUARDED_BY(rngMu_); //!< abort-injection RNG: shared by
                                 //!< every concurrently executing
                                 //!< attempt
    RtmStats stats_;

    /** Commit-time line locks: hashed per cache line, CAS-acquired
     *  during apply. 2048 single-byte slots keep the table in a few
     *  cache lines; hash collisions just coarsen conflict detection
     *  (false aborts, never missed ones). */
    static constexpr std::size_t kLineLockSlots = 2048;
    std::vector<std::atomic<std::uint8_t>> lineLocks_;
};

} // namespace fasp::htm

#endif // FASP_HTM_RTM_H
