/**
 * @file
 * Persistent compare-and-swap (PCAS) on top of PmDevice.
 *
 * A plain CAS on persistent memory is not failure-atomic *as a
 * publication primitive*: the new value becomes visible to other
 * threads the instant the CAS lands in the cache, but it only becomes
 * durable after a clflush + sfence the CPU gives us no way to fuse
 * with the CAS itself. A concurrent reader (or a dependent store) can
 * therefore act on a value that a crash then erases.
 *
 * The dirty-flag protocol closes that window (see PAPERS.md, "Concurrent
 * Data Structures with Out-of-the-box Persistence" and the PMwCAS line
 * of work):
 *
 *   1. CAS old -> new | kPcasDirtyBit   (publish, tagged "maybe not durable")
 *   2. clflush(word); sfence()          (make it durable)
 *   3. CAS new|dirty -> new             (clear the tag; lazily persisted)
 *
 * Readers that meet a tagged word must *help*: flush, fence, clear —
 * never consume the tagged value directly (the persistency checker
 * reports such reads as V6 tagged-read). The clear in step 3 is
 * deliberately never flushed: if a crash leaves `new | dirty` in the
 * durable image, the value *is* durable (it is in the image), so
 * recovery simply strips the flag. That makes the steady-state cost of
 * a PCAS exactly one flush + one fence — the same bill as the paper's
 * RTM in-place commit, with no line-tear exposure, because an
 * 8-byte aligned store is atomic on the modelled hardware while a
 * 64-byte line write-back is not.
 *
 * The flag bit 63 is available because the only word the engines run
 * through this layer is word 0 of a slotted-page header, whose top u16
 * field is the B-tree level — far below 2^15 (asserted here).
 *
 * Thread safety: cas()/read() are safe from many threads at once.
 * setConfig() is quiescent-only.
 */

#ifndef FASP_PM_PCAS_H
#define FASP_PM_PCAS_H

#include <cstdint>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "pm/thread_counters.h"

namespace fasp::pm {

class PmDevice;

/** Bit 63: value published by a PCAS, flush + clear still pending. */
inline constexpr std::uint64_t kPcasDirtyBit = 1ull << 63;

/** True if @p v carries the protocol flag. */
constexpr bool
pcasTagged(std::uint64_t v)
{
    return (v & kPcasDirtyBit) != 0;
}

/** @p v with the protocol flag stripped. */
constexpr std::uint64_t
pcasStrip(std::uint64_t v)
{
    return v & ~kPcasDirtyBit;
}

/** Failure-injection and retry policy of the PCAS layer. */
struct PcasConfig
{
    /** Probability that any single cas() attempt fails as if a
     *  concurrent writer won the word. The engines hold an exclusive
     *  page latch across commits, so real CAS losses cannot happen
     *  there; this knob models the contention a latch-free deployment
     *  would see, and drives FAST's logging fallback in Table C. */
    double failProbability = 0.0;

    /** Attempts before cas() reports Exhausted and the caller falls
     *  back to the logged commit path. */
    unsigned maxRetries = 8;

    /** Seed for the failure-injection RNG. */
    std::uint64_t seed = 11;
};

/**
 * Counters describing PCAS behaviour (ablation Table C). A snapshot, by
 * value: Pcas counts in a per-thread ThreadCounters block and stats()
 * adds its cells up.
 */
struct PcasStats
{
    StatCount casAttempts;  //!< publish CAS tries
    StatCount casCommits;   //!< cas() returning Ok
    StatCount casInjected;  //!< injected failures
    StatCount casConflicts; //!< lost to a real concurrent write
    StatCount casExhausted; //!< retry budget spent
    StatCount helps;        //!< foreign tags flushed + cleared

    /** Always 0: every commit publishes one word through cas(). Kept
     *  only because perfbench's workloads still read it; remove with
     *  the next benchmark change. */
    StatCount mwcasAttempts;
};

/** Outcome of one cas() call. */
enum class PcasResult : std::uint8_t {
    Ok,        //!< published and durable
    Conflict,  //!< a concurrent writer changed the target word
    Exhausted, //!< retry budget spent on injected failures
};

/** The PCAS engine bound to one PM device. */
class Pcas
{
  public:
    Pcas(PmDevice &device, const PcasConfig &config);

    /**
     * Persistent single-word CAS: publish @p newVal at @p off if the
     * word currently holds @p oldVal, and make it durable. On return
     * Ok the value is flushed and fenced. Values must be flag-free.
     */
    PcasResult cas(PmOffset off, std::uint64_t oldVal,
                   std::uint64_t newVal);

    /**
     * Read the logical value of a PCAS-managed word. Helps a dirty-
     * tagged value to durability (flush + fence + clear), so the
     * caller never observes the protocol flag.
     */
    std::uint64_t read(PmOffset off);

    /** Every thread's counts added up. */
    const PcasStats stats() const;

    /** Zero the counters. Quiescent only (benchmark phase starts). */
    void resetStats() { stats_.reset(); }

    const PcasConfig &config() const { return config_; }

    /** Replace the failure policy (ablation bench; quiescent only). */
    void setConfig(const PcasConfig &config);

  private:
    bool rollInjectedFail();

    /** Flush + fence + clear a dirty-tagged word (the helping step).
     *  Returns the stripped value regardless of who won the clear. */
    std::uint64_t helpClear(PmOffset off, std::uint64_t tagged);

    void clearTag(PmOffset off, std::uint64_t tagged);

    PmDevice &device_;
    PcasConfig config_;
    Mutex rngMu_;
    Rng rng_ GUARDED_BY(rngMu_); //!< failure-injection RNG, shared by
                                 //!< every concurrent caller

    /** PcasStats fields but the always-zero mwcasAttempts, counted per
     *  thread. */
    enum Stat : std::size_t {
        kCasAttempts,
        kCasCommits,
        kCasInjected,
        kCasConflicts,
        kCasExhausted,
        kHelps,
        kNumStats,
    };
    ThreadCounters<kNumStats> stats_;
};

} // namespace fasp::pm

#endif // FASP_PM_PCAS_H
