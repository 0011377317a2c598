// fasp-analyze: allow-file(raw-std-sync) -- PageLatch IS the intercepted
// wrapper; its state word is the implementation.
/**
 * @file
 * PageLatch + LatchTable: striped per-page reader/writer latches for
 * the engines' concurrency control.
 *
 * Each latch (PageLatch) is a single atomic word acting as a
 * reader/writer capability (state > 0: that many readers; state == -1:
 * one exclusive holder; 0: free). The hot path is one CAS with a short
 * bounded spin — no mutex, no global lock, and no allocation, so many
 * clients latching distinct pages never serialize on anything shared
 * beyond the cache line holding their latch.
 *
 * Acquisition never blocks indefinitely: after the spin budget the
 * attempt fails and the *caller* aborts its transaction and retries
 * from scratch (throwing LatchConflict). With try-acquire there is no
 * hold-and-wait on a latch, so latch deadlock is impossible by
 * construction; the cost is wasted work under heavy conflict, which
 * the engines surface as a conflict-retry counter.
 *
 * The table maps a PageId onto one of a fixed power-of-two number of
 * latches ("slots"). Striping means distinct pages may collide on one
 * latch. That is safe (strictly coarser exclusion) but callers tracking
 * their held latches must key by slot, not page, or a same-slot
 * collision inside one transaction would self-deadlock: use slotFor()
 * and the slot-based acquire/release API.
 *
 * Static analysis (DESIGN.md §10): PageLatch is a Clang CAPABILITY, so
 * scoped uses go through the RAII SharedPageLatchGuard /
 * ExclusivePageLatchGuard and are checked at compile time under
 * -Wthread-safety. The engines' strict-2PL latch *sets* — acquired page
 * by page, held across calls, released at commit — are beyond the
 * intraprocedural analysis; the slot-keyed LatchTable API they use is
 * therefore explicitly opted out (NO_THREAD_SAFETY_ANALYSIS) and that
 * discipline is checked dynamically instead (TSan + the concurrent
 * stress suite).
 */

#ifndef FASP_PAGER_LATCH_TABLE_H
#define FASP_PAGER_LATCH_TABLE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "pm/thread_counters.h"

namespace fasp {

/**
 * Thrown by the engines when a latch attempt exhausts its spin budget.
 * The transaction in flight must be rolled back and retried; the
 * multi-threaded driver counts these as conflict retries.
 */
class LatchConflict : public std::runtime_error
{
  public:
    explicit LatchConflict(PageId pid)
        : std::runtime_error("page latch conflict"), pid_(pid)
    {}

    PageId page() const { return pid_; }

  private:
    PageId pid_;
};

/**
 * One reader/writer page latch; see file comment. Padded to a cache
 * line so hot latches don't false-share.
 *
 * All acquire paths are bounded (CAS + spin budget) and return false
 * instead of blocking, making the latch layer deadlock-free; the
 * TRY_ACQUIRE annotations let -Wthread-safety verify scoped users
 * (the RAII guards below) release what they took.
 */
class alignas(64) CAPABILITY("latch") PageLatch
{
  public:
    PageLatch() = default;
    PageLatch(const PageLatch &) = delete;
    PageLatch &operator=(const PageLatch &) = delete;

    /** Try to take the latch shared; false once the spin budget runs
     *  out (a writer holds it). If @p spins is non-null it receives the
     *  number of failed CAS iterations before the outcome (0 = took the
     *  latch first try), which is how the span profiler distinguishes a
     *  contended acquire worth timing from the uncontended fast path. */
    bool tryAcquireShared(std::uint32_t *spins = nullptr)
        TRY_ACQUIRE_SHARED(true);

    /** Try to take the latch exclusive; false once the spin budget
     *  runs out. @p spins as in tryAcquireShared(). */
    bool tryAcquireExclusive(std::uint32_t *spins = nullptr)
        TRY_ACQUIRE(true);

    /** Atomically upgrade shared→exclusive, succeeding only if the
     *  caller is the sole reader (1 → -1). No spin: failure means a
     *  concurrent reader exists and waiting for it could deadlock with
     *  another upgrader, so the caller must conflict-abort. On failure
     *  the caller still holds its shared latch.
     *
     *  A conditional shared→exclusive transition has no precise
     *  capability annotation; upgrade sites live inside the engines'
     *  dynamically-checked latch sets. */
    bool tryUpgrade() NO_THREAD_SAFETY_ANALYSIS;

    void releaseShared() RELEASE_SHARED()
    {
        state_.fetch_sub(1, std::memory_order_release);
        if (mc::SchedulerHook *h = mc::activeHook())
            h->onRelease(mc::HookOp::LatchReleaseShared, this);
    }

    void releaseExclusive() RELEASE()
    {
        state_.store(0, std::memory_order_release);
        if (mc::SchedulerHook *h = mc::activeHook())
            h->onRelease(mc::HookOp::LatchReleaseExclusive, this);
    }

  private:
    std::atomic<std::int32_t> state_{0};
};

/** Conflict-abort exit of the guard constructors. [[noreturn]] so the
 *  thread-safety analysis prunes the not-acquired branch. */
[[noreturn]] inline void
throwLatchConflict(PageId pid)
{
    throw LatchConflict(pid);
}

/** RAII shared hold of a PageLatch: acquire-or-throw in the
 *  constructor, release in the destructor. The scoped counterpart to
 *  the engines' slot-keyed 2PL sets; -Wthread-safety checks its uses. */
class SCOPED_CAPABILITY SharedPageLatchGuard
{
  public:
    /** @throws LatchConflict (tagged with @p pid) if the spin budget
     *  runs out. */
    SharedPageLatchGuard(PageLatch &latch, PageId pid)
        ACQUIRE_SHARED(latch)
        : latch_(latch)
    {
        if (!latch_.tryAcquireShared())
            throwLatchConflict(pid);
    }

    ~SharedPageLatchGuard() RELEASE() { latch_.releaseShared(); }

    SharedPageLatchGuard(const SharedPageLatchGuard &) = delete;
    SharedPageLatchGuard &operator=(const SharedPageLatchGuard &) =
        delete;

  private:
    PageLatch &latch_;
};

/** RAII exclusive hold of a PageLatch; see SharedPageLatchGuard. */
class SCOPED_CAPABILITY ExclusivePageLatchGuard
{
  public:
    ExclusivePageLatchGuard(PageLatch &latch, PageId pid)
        ACQUIRE(latch)
        : latch_(latch)
    {
        if (!latch_.tryAcquireExclusive())
            throwLatchConflict(pid);
    }

    ~ExclusivePageLatchGuard() RELEASE() { latch_.releaseExclusive(); }

    ExclusivePageLatchGuard(const ExclusivePageLatchGuard &) = delete;
    ExclusivePageLatchGuard &operator=(
        const ExclusivePageLatchGuard &) = delete;

  private:
    PageLatch &latch_;
};

/** Aggregate latch-traffic counters: a snapshot, by value, of the
 *  table's per-thread counter block (exact once the clients are
 *  joined). */
struct LatchStats
{
    std::uint64_t sharedAcquires = 0;
    std::uint64_t exclusiveAcquires = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t conflicts = 0; //!< failed acquires (spin exhausted)
};

/**
 * The striped table of PageLatches. The slot-keyed methods mirror
 * PageLatch's API and additionally maintain the traffic counters; they
 * are what the engines' cross-function 2PL sets use, so they carry the
 * documented NO_THREAD_SAFETY_ANALYSIS opt-out (see file comment).
 */
class LatchTable
{
  public:
    /** @p stripes is rounded up to a power of two (default 1024 slots
     *  ≈ 64 KiB of padded latches: small enough to stay cache-resident,
     *  wide enough that random collisions are rare at 16 clients). */
    explicit LatchTable(std::size_t stripes = 1024);

    LatchTable(const LatchTable &) = delete;
    LatchTable &operator=(const LatchTable &) = delete;

    std::size_t stripes() const { return mask_ + 1; }

    /** Slot index a page hashes to; the unit of exclusion callers must
     *  track. */
    std::size_t slotFor(PageId pid) const
    {
        // Fibonacci hash: consecutive pids (the common allocation
        // pattern) spread across distinct slots.
        return (static_cast<std::uint64_t>(pid) * 0x9e3779b97f4a7c15ull
                >> 32) & mask_;
    }

    /** The latch behind @p slot, for scoped (guard-based) use. */
    PageLatch &latch(std::size_t slot) { return slots_[slot]; }

    bool tryAcquireShared(std::size_t slot) NO_THREAD_SAFETY_ANALYSIS;
    bool tryAcquireExclusive(std::size_t slot)
        NO_THREAD_SAFETY_ANALYSIS;
    bool tryUpgrade(std::size_t slot) NO_THREAD_SAFETY_ANALYSIS;
    void releaseShared(std::size_t slot) NO_THREAD_SAFETY_ANALYSIS;
    void releaseExclusive(std::size_t slot) NO_THREAD_SAFETY_ANALYSIS;

    LatchStats statsSnapshot() const;

  private:
    std::unique_ptr<PageLatch[]> slots_;
    std::size_t mask_;

    /** LatchStats fields, counted per thread (pm/thread_counters.h),
     *  so latch traffic adds no shared write beyond the latch word. */
    enum Stat : std::size_t {
        kSharedAcquires,
        kExclusiveAcquires,
        kUpgrades,
        kConflicts,
        kNumStats,
    };
    pm::ThreadCounters<kNumStats> counters_;
};

} // namespace fasp

#endif // FASP_PAGER_LATCH_TABLE_H
