/**
 * @file
 * PersistencyChecker: a pmemcheck-style dynamic analysis pass over the
 * PmDevice event stream.
 *
 * Every store, clflush and sfence the device executes drives a per-
 * cache-line state machine:
 *
 *      store          clflush           sfence
 *   CLEAN ----> DIRTY -------> FLUSHED -------> FENCED
 *                 ^  store        |  store (torn-durability window,
 *                 +---------------+  flagged and judged at the fence)
 *
 * Engines annotate their commit protocol through the narrow
 * PmDevice::txBegin()/txCommitPoint()/txEnd() API; the checker keeps
 * the set of lines stored inside the transaction and demands that each
 * of them is FENCED by the time the commit point (the store that makes
 * the transaction visible to recovery) executes. Five violation
 * classes result — see ViolationKind in checker_report.h.
 *
 * Lines written through PmDevice::writeScratch() (or ranges passed to
 * markScratch()) are best-effort by contract — free-list hints, freed
 * pages — and are exempt from the durability checks (V1/V3/V4/V5) but
 * still participate in redundant-flush detection.
 *
 * The checker is passive: it never changes device behaviour, and it is
 * crash-safe — onCrash() snapshots which lines were at risk (dirty,
 * hence possibly lost or torn) and resets, so recovery runs against a
 * clean analysis state.
 */

#ifndef FASP_PM_CHECKER_H
#define FASP_PM_CHECKER_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "pm/checker_report.h"

namespace fasp::pm {

/**
 * Per-cache-line persistency-ordering state machine. Attach to a
 * PmDevice with PmDevice::setChecker(); all hooks are then driven by
 * the device.
 *
 * Thread safety: every hook and query takes one internal mutex, so the
 * checker observes a total order of events. Transaction write sets and
 * the flushed-but-unfenced list are kept *per calling thread*, matching
 * the hardware: SFENCE only orders the issuing core's own write-backs,
 * and a commit protocol only vouches for the lines its own thread
 * stored. Per-line state remains global — the engines' latch protocol
 * guarantees at most one thread mutates a given line at a time, which
 * is what makes the per-line serialization meaningful (see DESIGN.md
 * §9).
 */
class PersistencyChecker
{
  public:
    /** State of one cache line; see file comment for transitions. */
    enum class LineState : std::uint8_t {
        Clean,   //!< no un-persisted store
        Dirty,   //!< stored, not flushed
        Flushed, //!< written back, writeback not yet ordered
        Fenced,  //!< writeback ordered: durable on any later crash
    };

    struct Config
    {
        /** Report V2 (clflush of a line with nothing to write back).
         *  On by default; a perf-tuning pass may turn it off to run
         *  the durability checks alone. */
        bool trackRedundantFlush = true;
    };

    PersistencyChecker() : PersistencyChecker(Config()) {}
    explicit PersistencyChecker(const Config &config);

    // --- Hooks driven by PmDevice ---------------------------------------

    void onStore(PmOffset off, std::size_t len, bool scratch,
                 std::uint64_t eventIndex, const char *site);
    void onFlush(PmOffset off, std::uint64_t eventIndex,
                 const char *site);
    void onFence(std::uint64_t eventIndex, const char *site);
    void onCrash();
    void onMarkScratch(PmOffset off, std::size_t len);

    /** An 8-byte atomic CAS store (PmDevice::casU64). Dirties the line
     *  like onStore but never arms the V4 flush->fence-window report:
     *  word-granular protocol stores (pcas publish / tag clear) are
     *  legal inside another thread's window, because the word cannot
     *  tear and its issuer settles its own durability (DESIGN.md §14).
     *  fasp-analyze's raw-cas rule keeps casU64 confined to the pcas
     *  layer, so this exemption cannot leak to ordinary stores. */
    void onCasStore(PmOffset off, std::uint64_t eventIndex,
                    const char *site);

    void onTxBegin();
    void onTxCommitPoint(std::uint64_t eventIndex, const char *site);
    void onTxEnd(bool committed, std::uint64_t eventIndex,
                 const char *site);

    // --- PCAS dirty-tag tracking (driven by pm::pcas, DESIGN.md §14) ----

    /** A persistent CAS published a tagged (not-yet-durable) value into
     *  the 8-byte word at @p wordOff. */
    void onTagSet(PmOffset wordOff, std::uint64_t eventIndex,
                  const char *site);

    /** The tag on @p wordOff was cleared (value now flushed+durable).
     *  Tolerates words the checker never saw tagged: recovery clears
     *  tags left behind by a crash that predates this checker. */
    void onTagClear(PmOffset wordOff);

    /** Every plain PmDevice::read() reports here. V6 fires if the read
     *  overlaps a currently tagged word: the caller consumed a value
     *  whose durability is unresolved instead of helping through the
     *  pcas layer. Cheap when no word is tagged (one relaxed load). */
    void onRead(PmOffset off, std::size_t len, std::uint64_t eventIndex,
                const char *site);

    /** Number of words currently carrying a PCAS dirty tag. */
    std::size_t taggedWordCount() const
    {
        return taggedCount_.load(std::memory_order_acquire);
    }

    // --- Checks and queries ----------------------------------------------

    /** V5 sweep: every non-scratch line must be CLEAN or FENCED. Call
     *  at orderly teardown (never after a crash). */
    void checkCleanShutdown(std::uint64_t eventIndex);

    /** Declare every currently un-persisted line deliberate (tests
     *  that abandon work in flight without simulating a crash). */
    void forgiveUnflushed();

    LineState lineState(PmOffset off) const;

    /** True if the line containing @p off was DIRTY when the last
     *  crash() hit — i.e. the crash policy was free to drop or tear
     *  it. FENCED and FLUSHED lines are never at risk: the simulated
     *  cache writes back on clflush, matching device semantics. */
    bool wasAtRiskAtCrash(PmOffset off) const;

    /** True while the *calling thread* has an open transaction. */
    bool txActive() const;

    /** The report is safe to read only while no hook can fire (workers
     *  joined or the checker detached) — a quiescence contract the
     *  intraprocedural analysis cannot see, hence the explicit opt-out
     *  on these two accessors. */
    CheckerReport &report() NO_THREAD_SAFETY_ANALYSIS
    {
        return report_;
    }
    const CheckerReport &report() const NO_THREAD_SAFETY_ANALYSIS
    {
        return report_;
    }

    /** Drop all line state and the report (not the at-risk snapshot). */
    void reset();

  private:
    struct LineInfo
    {
        LineState state = LineState::Clean;
        bool scratchOnly = false;    //!< every pending store is scratch
        bool flushAmbiguous = false; //!< stored-to between flush & fence
        std::uint8_t traceLen = 0;
        std::uint8_t traceHead = 0;
        std::array<LineTraceEvent, Violation::kTraceDepth> trace{};

        void record(LineTraceEvent::Op op, std::uint64_t eventIndex,
                    const char *site);
    };

    /** Per-thread protocol state (keyed by std::thread::id). */
    struct ThreadState
    {
        bool txActive = false;
        std::vector<PmOffset> txLines;          //!< insertion order
        std::unordered_set<PmOffset> txMembers; //!< dedup for txLines
        std::unordered_set<PmOffset> reported;  //!< lines already
                                                //!< reported this tx
        std::vector<PmOffset> flushedSinceFence;
    };

    /** State slot of the calling thread. */
    ThreadState &myState() REQUIRES(mu_);

    /** True if any 8-byte word of the line at @p base is tagged. */
    bool lineHasTaggedWord(PmOffset base) const REQUIRES(mu_);

    void storeLine(PmOffset base, bool scratch,
                   std::uint64_t eventIndex, const char *site,
                   ThreadState &ts) REQUIRES(mu_);
    /** Report every line of @p lines (write-set members of @p ts) that
     *  is not yet fenced: the V3/V5-at-commit check. */
    void checkLinesPersisted(const std::vector<PmOffset> &lines,
                             ThreadState &ts, std::uint64_t eventIndex,
                             const char *site) REQUIRES(mu_);
    void reportLine(ViolationKind kind, PmOffset base,
                    const LineInfo &info, std::uint64_t eventIndex,
                    const char *site) REQUIRES(mu_);

    Config config_;
    /** The single checker mutex: serializes every hook and query so the
     *  analysis observes a total order of persistence events. */
    mutable Mutex mu_;
    CheckerReport report_ GUARDED_BY(mu_);
    std::unordered_map<PmOffset, LineInfo> lines_ GUARDED_BY(mu_);
    std::unordered_map<std::thread::id, ThreadState> threads_
        GUARDED_BY(mu_);
    std::unordered_set<PmOffset> atRiskAtCrash_ GUARDED_BY(mu_);

    /** Word offsets currently carrying a PCAS dirty tag. The atomic
     *  mirror of the set's size lets onRead() skip the mutex in the
     *  (overwhelmingly common) no-tags case. */
    std::unordered_set<PmOffset> taggedWords_ GUARDED_BY(mu_);
    std::atomic<std::size_t> taggedCount_{0};

    /** Lines that ever held a tagged word: pcas-managed header lines,
     *  permanently exempt from the V2 redundant-flush lint (a helper's
     *  flush can always race the owner's clear; DESIGN.md §14). Reset
     *  at crash along with the rest of the tracking state. */
    std::unordered_set<PmOffset> everTaggedLines_ GUARDED_BY(mu_);
};

} // namespace fasp::pm

#endif // FASP_PM_CHECKER_H
