#include "pm/phase.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "common/sched_hook.h"
#include "common/thread_annotations.h"
#include "pm/thread_counters.h"

namespace fasp::pm {

namespace detail {
constinit thread_local std::size_t t_threadSlot = kNoSlot;
} // namespace detail

namespace {

using detail::t_threadSlot;

/** Site billed when a PM event fires outside any SiteScope. */
constexpr const char *kUntaggedSite = "(untagged)";

/** Site billed once the site registry is full. */
constexpr const char *kOverflowSite = "(overflow)";

constexpr std::size_t kMaxDepth = 16;

/** Low half of g_clock: holders of the phase clock (open windows plus
 *  obs); high half: epoch, bumped whenever the holder count leaves 0,
 *  so no wall interval is billed across a stretch the clock was off. */
constexpr std::uint64_t kClockHolders = 0xffffffffu;
constexpr std::uint64_t kClockEpoch = std::uint64_t{1} << 32;

constinit std::atomic<std::uint64_t> g_clock{0};

/** Site registry: index -> tag, claimed by CAS on a tag's first event
 *  anywhere in the process. Every thread's site cells share these
 *  indices, so windows add cells index by index. */
constinit std::array<std::atomic<const char *>, kMaxSites> g_sites{};

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Every field of a PmCell, for the field-wise operations below. */
constexpr std::uint64_t PmCell::*kCellFields[] = {
    &PmCell::wallNs, &PmCell::modelNs, &PmCell::stores,
    &PmCell::storeBytes, &PmCell::flushes, &PmCell::fences,
    &PmCell::readMisses, &PmCell::scopes,
};

// A ledger's cells have one writer, their thread, and are read by
// windows on any thread: the same accesses as a ThreadCounters cell.
using detail::bump;
using detail::loadCell;

void
addLive(PmCell &live, PmCell &out)
{
    for (auto field : kCellFields)
        out.*field += loadCell(live.*field);
}

struct ThreadLedger
{
    std::array<PmCell, kNumComponents> phases{};
    std::array<PmCell, kMaxSites + 1> sites{};

    // Owner-only state.
    std::uint64_t pcasAttempts = 0;
    std::uint64_t pcasRetries = 0;
    std::uint64_t pcasHelps = 0;
    std::array<Component, kMaxDepth> stack{Component::None};
    std::size_t depth = 0;
    std::uint64_t markNs = 0;    //!< wall time settled up to here
    std::uint64_t markEpoch = 0; //!< g_clock epoch markNs belongs to
    /** Tag memoIndex resolves; starts as one no thread installs. */
    const char *memoSite = kOverflowSite;
    std::size_t memoIndex = kMaxSites;

    PmCell &top() { return phases[static_cast<std::size_t>(stack[depth])]; }

    void addTo(LedgerCells &out)
    {
        for (std::size_t i = 0; i < kNumComponents; ++i)
            addLive(phases[i], out.phases[i]);
        for (std::size_t i = 0; i < sites.size(); ++i)
            addLive(sites[i], out.sites[i]);
    }
};

/** Live ledgers plus the folded totals of exited threads, and which
 *  ThreadCounters slots live threads hold. Leaked, so threads that
 *  outlive static destruction can still retire. */
struct Registry
{
    Mutex mu;
    std::vector<ThreadLedger *> live GUARDED_BY(mu);
    LedgerCells retired GUARDED_BY(mu);
    std::array<bool, kThreadSlots> slotTaken GUARDED_BY(mu){};
};

Registry &
registry()
{
    static Registry *reg = new Registry;
    return *reg;
}

constinit thread_local ThreadLedger *t_ledger = nullptr;
constinit thread_local const char *t_site = nullptr;

/** Folds the thread's ledger into the retired totals at thread exit
 *  and frees its slot. The registry mutex orders the slot's handover:
 *  the next thread to take it sees every count this one left. */
struct Retirer
{
    ~Retirer()
    {
        ThreadLedger *ledger = t_ledger;
        t_ledger = nullptr;
        {
            // Registry locking is bookkeeping, not a scheduling point.
            mc::HookDepthGuard hook_depth;
            Registry &reg = registry();
            MutexLock lk(&reg.mu);
            ledger->addTo(reg.retired);
            std::erase(reg.live, ledger);
            if (t_threadSlot < kThreadSlots)
                reg.slotTaken[t_threadSlot] = false;
        }
        // Counts from a later thread_local destructor go to the
        // overflow cell.
        t_threadSlot = kThreadSlots;
        delete ledger;
    }
};

ThreadLedger *
registerThread()
{
    auto *ledger = new ThreadLedger;
    {
        mc::HookDepthGuard hook_depth;
        Registry &reg = registry();
        MutexLock lk(&reg.mu);
        reg.live.push_back(ledger);
        // The lowest free slot, so threads that replace exited ones
        // (perfbench's per-slice clients) reuse their slots;
        // kThreadSlots, the overflow cell, when none is free.
        if (t_threadSlot == detail::kNoSlot) {
            auto free = std::find(reg.slotTaken.begin(),
                                  reg.slotTaken.end(), false);
            t_threadSlot =
                static_cast<std::size_t>(free - reg.slotTaken.begin());
            if (free != reg.slotTaken.end())
                *free = true;
        }
    }
    // Arms retirement on this thread's first registration. A thread
    // billing again after retiring (from a later thread_local
    // destructor) registers a ledger that simply stays live, and keeps
    // counting in the overflow cell.
    thread_local Retirer retirer;
    (void)retirer;
    return ledger;
}

ThreadLedger &
ledger()
{
    if (t_ledger == nullptr) [[unlikely]]
        t_ledger = registerThread();
    return *t_ledger;
}

/** Registry index of @p site (kMaxSites when the registry is full). */
std::size_t
siteIndex(const char *site)
{
    if (site == nullptr)
        site = kUntaggedSite;
    // Tags are literals: pointer equality settles almost every lookup;
    // content equality catches one literal duplicated across TUs.
    for (std::size_t i = 0; i < kMaxSites; ++i) {
        const char *cur = g_sites[i].load(std::memory_order_acquire);
        if (cur == site)
            return i;
        if (cur == nullptr)
            break;
    }
    for (std::size_t i = 0; i < kMaxSites; ++i) {
        const char *cur = g_sites[i].load(std::memory_order_acquire);
        // Claim an empty slot; a lost race re-examines the winner's tag.
        if (cur == nullptr &&
            g_sites[i].compare_exchange_strong(
                cur, site, std::memory_order_acq_rel)) {
            return i;
        }
        if (std::strcmp(cur, site) == 0)
            return i;
    }
    return kMaxSites;
}

/** Bill one event to the calling thread's innermost phase and current
 *  site: one more @p count, and @p n more @p amount. */
void
bill(std::uint64_t PmCell::*count, std::uint64_t PmCell::*amount,
     std::uint64_t n)
{
    ThreadLedger &l = ledger();
    if (l.memoSite != t_site) {
        l.memoSite = t_site;
        l.memoIndex = siteIndex(t_site);
    }
    for (PmCell *cell : {&l.top(), &l.sites[l.memoIndex]}) {
        bump(cell->*count);
        bump(cell->*amount, n);
    }
}

/** If anyone holds the phase clock, settle the wall time since the
 *  thread's last boundary into its innermost component and return the
 *  instant; otherwise read no clock and return 0. */
std::uint64_t
settle(ThreadLedger &l)
{
    std::uint64_t clock = g_clock.load(std::memory_order_relaxed);
    if ((clock & kClockHolders) == 0)
        return 0;
    std::uint64_t now = steadyNs();
    std::uint64_t epoch = clock / kClockEpoch;
    if (l.markEpoch == epoch && l.markNs != 0)
        bump(l.top().wallNs, now - l.markNs);
    l.markNs = now;
    l.markEpoch = epoch;
    return now;
}

void
snapshotAll(LedgerCells &out)
{
    mc::HookDepthGuard hook_depth;
    Registry &reg = registry();
    MutexLock lk(&reg.mu);
    out = reg.retired;
    for (ThreadLedger *ledger : reg.live)
        ledger->addTo(out);
}

} // namespace

const char *
componentName(Component comp)
{
    switch (comp) {
      case Component::None: return "none";
      case Component::Search: return "search";
      case Component::VolatileCopy: return "volatile-buffer-caching";
      case Component::InPlaceInsert: return "in-place-record-insert";
      case Component::UpdateSlotHeader: return "update-slot-header";
      case Component::FlushRecord: return "clflush(record)";
      case Component::Defrag: return "defragment(page)";
      case Component::NvwalCompute: return "nvwal-computation";
      case Component::HeapMgmt: return "heap-management";
      case Component::LogFlush: return "log-flush";
      case Component::WalIndex: return "wal-index";
      case Component::Checkpoint: return "checkpointing";
      case Component::Atomic64BWrite: return "atomic-64B-write";
      case Component::CommitMisc: return "misc";
      case Component::Recovery: return "recovery";
      case Component::SqlFrontend: return "sql-frontend";
      case Component::NumComponents: break;
    }
    return "?";
}

// --- PmCell ------------------------------------------------------------

bool
PmCell::empty() const
{
    return std::all_of(std::begin(kCellFields), std::end(kCellFields),
                       [this](auto field) { return this->*field == 0; });
}

PmCell &
PmCell::operator+=(const PmCell &o)
{
    for (auto field : kCellFields)
        this->*field += o.*field;
    return *this;
}

PmCell &
PmCell::operator-=(const PmCell &o)
{
    for (auto field : kCellFields)
        this->*field -= o.*field;
    return *this;
}

PmCell
ThreadTotals::sum() const
{
    PmCell total;
    for (const PmCell &cell : phases)
        total += cell;
    return total;
}

LedgerCells &
LedgerCells::operator-=(const LedgerCells &o)
{
    for (std::size_t i = 0; i < phases.size(); ++i)
        phases[i] -= o.phases[i];
    for (std::size_t i = 0; i < sites.size(); ++i)
        sites[i] -= o.sites[i];
    return *this;
}

// --- The calling thread ------------------------------------------------

std::size_t
detail::registerThreadSlot()
{
    ledger();
    return t_threadSlot;
}

ThreadTotals
threadTotals()
{
    // The calling thread is its ledger's only writer: plain reads.
    const ThreadLedger &l = ledger();
    return {l.phases, l.pcasAttempts, l.pcasRetries, l.pcasHelps};
}

std::uint64_t
threadModelNs()
{
    std::uint64_t sum = 0;
    for (const PmCell &cell : ledger().phases)
        sum += cell.modelNs;
    return sum;
}

Component
currentThreadComponent()
{
    const ThreadLedger &l = ledger();
    return l.stack[l.depth];
}

std::uint64_t
settleThreadClock()
{
    std::uint64_t now = settle(ledger());
    return now != 0 ? now : steadyNs();
}

void
holdPhaseClock(bool hold)
{
    if (!hold) {
        g_clock.fetch_sub(1, std::memory_order_relaxed);
        return;
    }
    std::uint64_t c = g_clock.load(std::memory_order_relaxed);
    while (!g_clock.compare_exchange_weak(
        c, c + 1 + ((c & kClockHolders) == 0 ? kClockEpoch : 0),
        std::memory_order_relaxed)) {
    }
}

namespace detail {

void
enterPhase(Component comp)
{
    ThreadLedger &l = ledger();
    settle(l);
    FASP_ASSERT(l.depth + 1 < kMaxDepth);
    l.stack[++l.depth] = comp;
    bump(l.top().scopes);
}

void
leavePhase()
{
    ThreadLedger &l = ledger();
    settle(l);
    FASP_ASSERT(l.depth > 0);
    --l.depth;
}

} // namespace detail

// --- Billing -----------------------------------------------------------

void
billStore(std::size_t bytes)
{
    bill(&PmCell::stores, &PmCell::storeBytes, bytes);
}

void
billFlush(std::uint64_t modelNs)
{
    bill(&PmCell::flushes, &PmCell::modelNs, modelNs);
}

void
billFence(std::uint64_t modelNs)
{
    bill(&PmCell::fences, &PmCell::modelNs, modelNs);
}

void
billReadMiss(std::uint64_t modelNs)
{
    bill(&PmCell::readMisses, &PmCell::modelNs, modelNs);
}

void
billPcasAttempt(bool retry)
{
    ThreadLedger &l = ledger();
    ++l.pcasAttempts;
    if (retry)
        ++l.pcasRetries;
}

void
billPcasHelp()
{
    ++ledger().pcasHelps;
}

const char *
setThreadSite(const char *site)
{
    const char *prev = t_site;
    t_site = site;
    return prev;
}

const char *
threadSite()
{
    return t_site;
}

// --- PhaseTracker (a window) --------------------------------------------

PhaseTracker::PhaseTracker(const PhaseTracker &other) : cells_(other.cells_)
{
    FASP_ASSERT(!other.open_);
}

PhaseTracker &
PhaseTracker::operator=(const PhaseTracker &other)
{
    FASP_ASSERT(!other.open_);
    reset();
    cells_ = other.cells_;
    return *this;
}

PhaseTracker::~PhaseTracker()
{
    if (open_)
        holdPhaseClock(false);
}

void
PhaseTracker::start()
{
    if (!open_)
        holdPhaseClock(true);
    open_ = true;
    // Wall time the caller spent before the window stays outside it.
    settleThreadClock();
    snapshotAll(cells_);
}

void
PhaseTracker::stop()
{
    if (!open_)
        return;
    settleThreadClock();
    LedgerCells end;
    snapshotAll(end);
    end -= cells_;
    cells_ = end;
    open_ = false;
    holdPhaseClock(false);
}

void
PhaseTracker::reset()
{
    if (open_) {
        open_ = false;
        holdPhaseClock(false);
    }
    cells_ = LedgerCells{};
}

const PmCell &
PhaseTracker::phase(Component comp) const
{
    FASP_ASSERT(!open_);
    return cells_.phases[static_cast<std::size_t>(comp)];
}

std::vector<std::pair<const char *, PmCell>>
PhaseTracker::sites() const
{
    FASP_ASSERT(!open_);
    std::vector<std::pair<const char *, PmCell>> out;
    for (std::size_t i = 0; i < cells_.sites.size(); ++i) {
        if (cells_.sites[i].empty())
            continue;
        const char *name = i < kMaxSites
            ? g_sites[i].load(std::memory_order_acquire)
            : kOverflowSite;
        out.emplace_back(name, cells_.sites[i]);
    }
    return out;
}

std::uint64_t
PhaseTracker::grandTotalNs() const
{
    std::uint64_t sum = 0;
    for (std::size_t i = 1; i < kNumComponents; ++i)
        sum += cells_.phases[i].wallNs + cells_.phases[i].modelNs;
    return sum;
}

std::uint64_t
PhaseTracker::grandTotalFlushes() const
{
    std::uint64_t sum = 0;
    for (const PmCell &cell : cells_.phases)
        sum += cell.flushes;
    return sum;
}

} // namespace fasp::pm
