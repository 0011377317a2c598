/**
 * @file
 * Persistent compare-and-swap (PCAS) and a bounded persistent
 * multi-word CAS (PMwCAS) on top of PmDevice.
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
 * a PCAS exactly one flush + one fence — the same bill as the RTM
 * in-place commit it replaces, with no line-tear exposure, because an
 * 8-byte aligned store is atomic on the modelled hardware while a
 * 64-byte line write-back is not.
 *
 * PMwCAS extends this to up to kMaxMwcasWords words via a persistent
 * descriptor (status, count, {addr, old, new}[]): phase 1 installs a
 * descriptor pointer (kPmwcasDescBit | slot) into every target word in
 * address order, a durable status flip to Succeeded is the commit
 * point, and phase 2 replaces the pointers with the tagged new values.
 * Recovery rolls a descriptor forward (Succeeded) or back (Active), so
 * the word set changes all-or-nothing across crashes.
 *
 * Flag bits 63 (dirty) and 62 (descriptor) are available because every
 * word the engines run through this layer is a packed slotted-page
 * header word — four u16 fields, each bounded by the page size — so
 * bits 62/63 are structurally zero in real values (asserted here).
 *
 * Thread safety: cas()/mwcas()/read() are safe from many threads at
 * once. recover() and setConfig() are quiescent-only.
 */

#ifndef FASP_PM_PCAS_H
#define FASP_PM_PCAS_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace fasp::pm {

class PmDevice;

/** Bit 63: value published by a PCAS, flush + clear still pending. */
inline constexpr std::uint64_t kPcasDirtyBit = 1ull << 63;

/** Bit 62: word holds a PMwCAS descriptor pointer, not a value. */
inline constexpr std::uint64_t kPmwcasDescBit = 1ull << 62;

/** Both protocol bits; a word with neither is a plain durable value. */
inline constexpr std::uint64_t kPcasFlagMask =
    kPcasDirtyBit | kPmwcasDescBit;

/** Largest page size whose header words are structurally flag-free.
 *  Bit 62 of an aligned header u64 is bit 14 of its top u16 field — a
 *  page-relative offset, which stays below 2^14 only while the page
 *  size does. (Bit 63 = bit 15 is safe at every supported size, since
 *  offsets never reach 2^15.) Above this, FAST must publish headers
 *  via RTM or the log instead. */
inline constexpr std::uint32_t kPcasMaxPageSize = 16384;

/** True if @p v carries either protocol flag. */
constexpr bool
pcasTagged(std::uint64_t v)
{
    return (v & kPcasFlagMask) != 0;
}

/** @p v with both protocol flags stripped. */
constexpr std::uint64_t
pcasStrip(std::uint64_t v)
{
    return v & ~kPcasFlagMask;
}

/** Failure-injection and retry policy of the PCAS layer. */
struct PcasConfig
{
    /** Probability that any single cas()/mwcas() attempt fails as if a
     *  concurrent writer won the word. The engines hold an exclusive
     *  page latch across commits, so real CAS losses cannot happen
     *  there; this knob models the latch-free contention an RTM-style
     *  deployment would see, for the ablation table. */
    double failProbability = 0.0;

    /** Attempts before cas()/mwcas() reports Exhausted and the caller
     *  falls back to the logged commit path. */
    unsigned maxRetries = 8;

    /** Seed for the failure-injection RNG. */
    std::uint64_t seed = 11;
};

/**
 * Counters describing PCAS behaviour (ablation Table C). Relaxed
 * atomics: concurrent clients of one engine update them tear-free;
 * copies snapshot field-by-field.
 */
struct PcasStats
{
    std::atomic<std::uint64_t> casAttempts{0};  //!< publish CAS tries
    std::atomic<std::uint64_t> casCommits{0};   //!< cas() returning Ok
    std::atomic<std::uint64_t> casInjected{0};  //!< injected failures
    std::atomic<std::uint64_t> casConflicts{0}; //!< lost to a real
                                                //!< concurrent write
    std::atomic<std::uint64_t> casExhausted{0}; //!< retry budget spent
    std::atomic<std::uint64_t> helps{0};        //!< foreign tags
                                                //!< flushed + cleared

    std::atomic<std::uint64_t> mwcasAttempts{0};
    std::atomic<std::uint64_t> mwcasCommits{0};
    std::atomic<std::uint64_t> mwcasInjected{0};
    std::atomic<std::uint64_t> mwcasConflicts{0};
    std::atomic<std::uint64_t> mwcasExhausted{0};

    std::atomic<std::uint64_t> recoveredForward{0}; //!< descriptors
                                                    //!< rolled forward
    std::atomic<std::uint64_t> recoveredBack{0};    //!< descriptors
                                                    //!< rolled back

    PcasStats() = default;
    PcasStats(const PcasStats &other) { copyFrom(other); }

    PcasStats &operator=(const PcasStats &other)
    {
        copyFrom(other);
        return *this;
    }

    void reset() { *this = PcasStats{}; }

  private:
    void copyFrom(const PcasStats &other)
    {
        casAttempts = other.casAttempts.load(std::memory_order_relaxed);
        casCommits = other.casCommits.load(std::memory_order_relaxed);
        casInjected = other.casInjected.load(std::memory_order_relaxed);
        casConflicts =
            other.casConflicts.load(std::memory_order_relaxed);
        casExhausted =
            other.casExhausted.load(std::memory_order_relaxed);
        helps = other.helps.load(std::memory_order_relaxed);
        mwcasAttempts =
            other.mwcasAttempts.load(std::memory_order_relaxed);
        mwcasCommits =
            other.mwcasCommits.load(std::memory_order_relaxed);
        mwcasInjected =
            other.mwcasInjected.load(std::memory_order_relaxed);
        mwcasConflicts =
            other.mwcasConflicts.load(std::memory_order_relaxed);
        mwcasExhausted =
            other.mwcasExhausted.load(std::memory_order_relaxed);
        recoveredForward =
            other.recoveredForward.load(std::memory_order_relaxed);
        recoveredBack =
            other.recoveredBack.load(std::memory_order_relaxed);
    }
};

/** Outcome of one cas()/mwcas() call. */
enum class PcasResult : std::uint8_t {
    Ok,        //!< published and durable
    Conflict,  //!< a concurrent writer changed a target word
    Exhausted, //!< retry budget spent on injected failures
};

/**
 * The PCAS engine bound to one PM device plus a descriptor region
 * (one device page, carved out by the pager next to the directory).
 */
class Pcas
{
  public:
    /** Upper bound on words per mwcas(): a slot-header diff is at most
     *  64 header bytes = 8 words, so the descriptor stays one slot. */
    static constexpr std::size_t kMaxMwcasWords = 8;

    /** Bytes reserved per descriptor slot (208 used, padded so four
     *  cache lines hold exactly one descriptor). */
    static constexpr std::size_t kDescSlotBytes = 256;

    /** Descriptor slots in the region; bounds concurrent mwcas()es.
     *  16 * 256 = 4096 bytes — one device page at every supported
     *  page size. */
    static constexpr std::size_t kDescSlots = 16;

    /** Bytes of PM the descriptor region occupies. */
    static constexpr std::size_t kDescRegionBytes =
        kDescSlots * kDescSlotBytes;

    /** One word of an mwcas() request. */
    struct MwcasEntry
    {
        PmOffset off = 0;          //!< 8-byte-aligned device offset
        std::uint64_t oldVal = 0;  //!< expected current value (untagged)
        std::uint64_t newVal = 0;  //!< desired value (untagged)
    };

    /**
     * @param device        the PM device all operations go through
     * @param descRegionOff 8-byte-aligned offset of kDescRegionBytes of
     *                      PM reserved for PMwCAS descriptors
     */
    Pcas(PmDevice &device, PmOffset descRegionOff,
         const PcasConfig &config);

    /**
     * Persistent single-word CAS: publish @p newVal at @p off if the
     * word currently holds @p oldVal, and make it durable. On return
     * Ok the value is flushed and fenced. Values must be flag-free.
     */
    PcasResult cas(PmOffset off, std::uint64_t oldVal,
                   std::uint64_t newVal);

    /**
     * Persistent multi-word CAS over @p count <= kMaxMwcasWords
     * entries. All words change to their new values, durably and
     * all-or-nothing (across both concurrent readers and crashes), or
     * none do. Entries need not be sorted; offsets must be distinct.
     */
    PcasResult mwcas(const MwcasEntry *entries, std::size_t count);

    /**
     * Read the logical value of a PCAS-managed word. Helps a dirty-
     * tagged value to durability (flush + fence + clear) and resolves
     * a descriptor pointer against its descriptor, so the caller never
     * observes a protocol flag.
     */
    std::uint64_t read(PmOffset off);

    /**
     * Post-crash, single-threaded: roll every Succeeded descriptor
     * forward and every Active descriptor back, leaving all slots
     * Free. Does NOT strip stray dirty bits from data words — the
     * engine's page-header sweep owns that, because only the engine
     * knows which words are headers. Call before log recovery so the
     * logged path reads untangled headers.
     */
    void recover();

    PcasStats &stats() { return stats_; }
    const PcasStats &stats() const { return stats_; }

    const PcasConfig &config() const { return config_; }

    /** Replace the failure policy (ablation bench; quiescent only). */
    void setConfig(const PcasConfig &config);

  private:
    // Descriptor slot layout (all u64): status, count, then
    // kMaxMwcasWords x {addr, old, new}.
    static constexpr std::uint64_t kSlotFree = 0;
    static constexpr std::uint64_t kSlotActive = 1;
    static constexpr std::uint64_t kSlotSucceeded = 2;

    PmOffset slotOff(std::size_t slot) const;
    PmOffset entryOff(std::size_t slot, std::size_t i) const;

    /** Descriptor-pointer word value for @p slot. */
    static std::uint64_t descPtr(std::size_t slot);

    bool rollInjectedFail();
    unsigned acquireSlot();
    void releaseSlot(unsigned slot);

    /** Flush + fence + clear a dirty-tagged word (the helping step).
     *  Returns the stripped value regardless of who won the clear. */
    std::uint64_t helpClear(PmOffset off, std::uint64_t tagged);

    /** One mwcas attempt against an already-written descriptor. */
    PcasResult mwcasAttempt(unsigned slot, const MwcasEntry *entries,
                            std::size_t count);

    /** Undo a partial phase-1 install, durably, before slot reuse. */
    void rollBackInstall(unsigned slot, const MwcasEntry *entries,
                         std::size_t installed);

    void clearTag(PmOffset off, std::uint64_t tagged);

    PmDevice &device_;
    PmOffset descOff_;
    PcasConfig config_;
    Mutex rngMu_;
    Rng rng_ GUARDED_BY(rngMu_); //!< failure-injection RNG, shared by
                                 //!< every concurrent caller
    PcasStats stats_;

    /** DRAM-side descriptor-slot allocator (bit i = slot i busy).
     *  Rebuilt empty on every construction: after a crash the PM-side
     *  status words are the truth and recover() frees them all. */
    std::atomic<std::uint32_t> slotMask_{0};
};

} // namespace fasp::pm

#endif // FASP_PM_PCAS_H
