/**
 * @file
 * The per-thread PM ledger: the one place where persistence events and
 * phase boundaries are billed, and the views derived from it
 * (DESIGN.md §11). It reproduces the paper's breakdown figures (Figs.
 * 6, 7 and 8) and feeds the obs exports and spans.
 *
 * Code regions are tagged with a Component by RAII PhaseScope objects
 * and with a code-site tag by SiteScope (pm/device.h). PmDevice bills
 * each store, clflush, sfence, read miss and modelled-latency charge of
 * the calling thread once, to the cell of its innermost Component and
 * the cell of its current site tag; Pcas bills its attempts, retries
 * and helps. PhaseScope settles exclusive wall time into the outgoing
 * Component's cell at every boundary, but reads the clock only while
 * wall time has a consumer: an open PhaseTracker window, or the obs
 * layer while enabled (holdPhaseClock).
 *
 * Every consumer is a view of these cells:
 *  - PhaseTracker is a window: every thread's totals at stop() minus
 *    those at start(), for the figure tables and the obs `pm_phases` /
 *    `pm_sites` export;
 *  - spans and the multi-client timers take deltas of the calling
 *    thread's own ledger (threadTotals(), threadModelNs()).
 *
 * Concurrency: a thread's ledger has one writer, its own thread. Cells
 * are accessed as relaxed atomics, and the writer's increment is a load
 * and a store, never a read-modify-write, so a window may read them
 * from any thread. Each
 * thread registers its ledger on its first event; at thread exit the
 * ledger is folded into a retired total and freed, so the counts of
 * exited threads stay counted in bounded memory. Registration also
 * hands the thread its ThreadCounters slot (pm/thread_counters.h),
 * which retirement frees for the next thread to register.
 */

#ifndef FASP_PM_PHASE_H
#define FASP_PM_PHASE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fasp::pm {

/**
 * Fine-grained cost components. The bench layer groups these into the
 * paper's Search / Page Update / Commit stacks.
 */
enum class Component : std::uint8_t {
    None = 0,        //!< untagged execution
    Search,          //!< B-tree root-to-leaf traversal (Fig. 6)
    // --- Page Update sub-components (Fig. 7) ---
    VolatileCopy,    //!< NVWAL: updating the volatile buffer-cache copy
    InPlaceInsert,   //!< FAST/FASH: in-place record store into free space
    UpdateSlotHeader,//!< building/copying the new slot header (volatile)
    FlushRecord,     //!< clflush of in-place record bytes
    Defrag,          //!< on-demand page defragmentation
    // --- Commit sub-components (Fig. 8) ---
    NvwalCompute,    //!< NVWAL differential-log computation
    HeapMgmt,        //!< NVWAL persistent heap manager (pmalloc/pfree)
    LogFlush,        //!< flushing log / WAL frames + commit mark
    WalIndex,        //!< NVWAL volatile WAL-index construction
    Checkpoint,      //!< eager checkpoint of slot-header log entries
    Atomic64BWrite,  //!< FAST in-place commit (PCAS of header word 0)
    CommitMisc,      //!< other commit-path bookkeeping
    // --- Not part of insert breakdown ---
    Recovery,        //!< post-crash log scan and replay
    SqlFrontend,     //!< SQL parse/plan time (Figs. 11-12)
    NumComponents,
};

inline constexpr std::size_t kNumComponents =
    static_cast<std::size_t>(Component::NumComponents);

/** Distinct site tags the ledger tells apart, process-wide; events at
 *  further tags bill to the "(overflow)" site. */
inline constexpr std::size_t kMaxSites = 128;

/** Short printable name of a component. */
const char *componentName(Component comp);

/** What the events billed to one phase or one site add up to. Site
 *  cells carry no wall time and no scope entries. */
struct PmCell
{
    std::uint64_t wallNs = 0;     //!< exclusive wall time
    std::uint64_t modelNs = 0;    //!< modelled PM latency
    std::uint64_t stores = 0;     //!< stores (best-effort ones excluded)
    std::uint64_t storeBytes = 0;
    std::uint64_t flushes = 0;    //!< clflush / clwb
    std::uint64_t fences = 0;     //!< sfence
    std::uint64_t readMisses = 0; //!< simulated read misses
    std::uint64_t scopes = 0;     //!< PhaseScope entries

    bool empty() const;
    PmCell &operator+=(const PmCell &o);
    PmCell &operator-=(const PmCell &o);
};

/** One thread's ledger: its phase cells and PCAS counts. */
struct ThreadTotals
{
    std::array<PmCell, kNumComponents> phases{};
    std::uint64_t pcasAttempts = 0; //!< cas() attempts
    std::uint64_t pcasRetries = 0;  //!< attempts beyond a call's first
    std::uint64_t pcasHelps = 0;    //!< foreign dirty tags helped to
                                    //!< durability

    /** The phase cells added up. */
    PmCell sum() const;
};

/** The calling thread's ledger since the thread started (spans and
 *  per-client timers take deltas of it). */
ThreadTotals threadTotals();

/** Modelled PM ns billed to the calling thread so far, all phases. */
std::uint64_t threadModelNs();

/** Innermost Component the calling thread is executing, None outside
 *  any PhaseScope. */
Component currentThreadComponent();

/** Settle the calling thread's wall time up to now into its innermost
 *  Component (when the phase clock is held) and return that instant,
 *  steady-clock ns. */
std::uint64_t settleThreadClock();

/** Hold (or let go of) the phase clock for the obs layer: PhaseScope
 *  reads the clock only while obs holds it or a window is open.
 *  Quiescent only, like obs::setEnabled(). */
void holdPhaseClock(bool hold);

// --- Billing: PmDevice and Pcas bill each event here, once -----------

void billStore(std::size_t bytes);
void billFlush(std::uint64_t modelNs);
void billFence(std::uint64_t modelNs);
void billReadMiss(std::uint64_t modelNs);
void billPcasAttempt(bool retry);
void billPcasHelp();

/** Install @p site as the calling thread's site tag, returning the
 *  previous one. Tags must be strings of static storage duration
 *  (literals): the site registry keeps the pointer. */
const char *setThreadSite(const char *site);

/** The calling thread's site tag (nullptr when untagged). */
const char *threadSite();

namespace detail {
void enterPhase(Component comp);
void leavePhase();
} // namespace detail

/** RAII tag for a code region: events and wall time inside it bill to
 *  @p comp (exclusive of nested scopes). */
class PhaseScope
{
  public:
    explicit PhaseScope(Component comp) { detail::enterPhase(comp); }
    ~PhaseScope() { detail::leavePhase(); }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;
};

/** Every thread's ledger, live and retired, added up. */
struct LedgerCells
{
    std::array<PmCell, kNumComponents> phases{};
    /** By site registration index; the last cell is "(overflow)". */
    std::array<PmCell, kMaxSites + 1> sites{};

    LedgerCells &operator-=(const LedgerCells &o);
};

/**
 * A window over the ledger: every thread's totals at stop() minus
 * those at start(). Readings are those of the last stop(). (It keeps
 * the name of the tracker it replaced because perfbench's TracingPageIO
 * overrides TxPageIO::tracker().)
 */
class PhaseTracker
{
  public:
    PhaseTracker() = default;
    PhaseTracker(const PhaseTracker &other);
    PhaseTracker &operator=(const PhaseTracker &other);
    ~PhaseTracker();

    /** Open the window (holding the phase clock until stop()). */
    void start();

    /** Close the window and keep its totals. No-op when not open. */
    void stop();

    /** Close the window if open and zero its totals. */
    void reset();

    /** Totals billed to @p comp inside the window. */
    const PmCell &phase(Component comp) const;

    /** (tag, cell) of every site billed inside the window, in site
     *  registration order, "(overflow)" last. */
    std::vector<std::pair<const char *, PmCell>> sites() const;

    /** Readings of phase(@p c): exclusive wall ns, modelled PM ns, and
     *  their sum (the reported figure time). */
    std::uint64_t wallNs(Component c) const { return phase(c).wallNs; }
    std::uint64_t modelNs(Component c) const { return phase(c).modelNs; }
    std::uint64_t totalNs(Component c) const { return wallNs(c) + modelNs(c); }

    std::uint64_t flushCount(Component c) const { return phase(c).flushes; }
    std::uint64_t fenceCount(Component c) const { return phase(c).fences; }
    std::uint64_t scopeCount(Component c) const { return phase(c).scopes; }
    std::uint64_t readMissCount(Component c) const
    {
        return phase(c).readMisses;
    }

    /** Sum of totalNs over every component but None. */
    std::uint64_t grandTotalNs() const;

    /** Sum of flush counts over every component. */
    std::uint64_t grandTotalFlushes() const;

  private:
    LedgerCells cells_; //!< start totals while open, the delta after
    bool open_ = false;
};

} // namespace fasp::pm

#endif // FASP_PM_PHASE_H
