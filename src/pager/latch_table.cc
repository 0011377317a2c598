#include "pager/latch_table.h"

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "obs/span.h"

namespace fasp {

namespace {

/** CAS attempts before an acquire gives up and reports a conflict.
 *  Large enough to ride out another client's in-memory critical
 *  section; far too small to wait for one blocked on modelled PM
 *  latency, which is the case the conflict-abort path exists for. */
constexpr int kSpinBudget = 4096;

/** Back off politely once the first few spins fail. */
void
relax(int attempt)
{
    if (attempt >= 64 && attempt % 64 == 0)
        std::this_thread::yield();
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

// --- PageLatch ---------------------------------------------------------------

bool
PageLatch::tryAcquireShared(std::uint32_t *spins)
{
    if (mc::SchedulerHook *h = mc::activeHook()) {
        // Model-check path: spinning is pointless while every other
        // thread is descheduled, so attempt one CAS per grant and park
        // on failure. onBlocked == false means the scheduler chose to
        // deliver the bounded-wait conflict outcome (the production
        // spin-budget exhaustion) instead of waiting for the release.
        h->atPoint(mc::HookOp::LatchAcquireShared, this, 1);
        for (;;) {
            std::int32_t cur = state_.load(std::memory_order_relaxed);
            if (cur >= 0 &&
                state_.compare_exchange_strong(
                    cur, cur + 1, std::memory_order_acquire,
                    std::memory_order_relaxed)) {
                return true;
            }
            if (!h->onBlocked(mc::HookOp::LatchAcquireShared, this))
                return false;
        }
    }
    for (int i = 0; i < kSpinBudget; ++i) {
        std::int32_t cur = state_.load(std::memory_order_relaxed);
        if (cur >= 0 &&
            state_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
            if (spins)
                *spins = static_cast<std::uint32_t>(i);
            return true;
        }
        relax(i);
    }
    if (spins)
        *spins = kSpinBudget;
    return false;
}

bool
PageLatch::tryAcquireExclusive(std::uint32_t *spins)
{
    if (mc::SchedulerHook *h = mc::activeHook()) {
        h->atPoint(mc::HookOp::LatchAcquireExclusive, this, 1);
        for (;;) {
            std::int32_t cur = 0;
            if (state_.compare_exchange_strong(
                    cur, -1, std::memory_order_acquire,
                    std::memory_order_relaxed)) {
                return true;
            }
            if (!h->onBlocked(mc::HookOp::LatchAcquireExclusive, this))
                return false;
        }
    }
    for (int i = 0; i < kSpinBudget; ++i) {
        std::int32_t cur = 0;
        if (state_.compare_exchange_weak(cur, -1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
            if (spins)
                *spins = static_cast<std::uint32_t>(i);
            return true;
        }
        relax(i);
    }
    if (spins)
        *spins = kSpinBudget;
    return false;
}

bool
PageLatch::tryUpgrade()
{
    // Upgrade never waits, under the model checker or in production:
    // failure means a concurrent reader exists and the caller must
    // conflict-abort (see header). One point, one CAS.
    if (mc::SchedulerHook *h = mc::activeHook())
        h->atPoint(mc::HookOp::LatchUpgrade, this, 1);
    std::int32_t sole = 1;
    return state_.compare_exchange_strong(sole, -1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
}

// --- LatchTable --------------------------------------------------------------

LatchTable::LatchTable(std::size_t pages)
    : latches_(std::make_unique<PageLatch[]>(pages)), pages_(pages)
{
}

PageLatch &
LatchTable::latch(PageId pid)
{
    // A corrupt child pointer must not index past the table before the
    // device's own range check would catch it.
    if (pid >= pages_) {
        faspPanic("page latch out of range: pid=%u pages=%zu", pid,
                  pages_);
    }
    return latches_[pid];
}

bool
LatchTable::tryAcquireShared(PageId pid)
{
    PageLatch &l = latch(pid);
    bool ok;
    if (obs::enabled()) {
        // Wait-cycles hook: time the acquire, but report it only when
        // it actually spun or failed — the uncontended first-try CAS
        // is not a wait, and single-threaded runs stay silent.
        std::uint32_t spins = 0;
        std::uint64_t t0 = nowNs();
        ok = l.tryAcquireShared(&spins);
        if (spins != 0 || !ok)
            obs::spanLatchWait(pid, nowNs() - t0, !ok);
    } else {
        ok = l.tryAcquireShared();
    }
    counters_.add(ok ? kSharedAcquires : kConflicts);
    return ok;
}

bool
LatchTable::tryAcquireExclusive(PageId pid)
{
    PageLatch &l = latch(pid);
    bool ok;
    if (obs::enabled()) {
        std::uint32_t spins = 0;
        std::uint64_t t0 = nowNs();
        ok = l.tryAcquireExclusive(&spins);
        if (spins != 0 || !ok)
            obs::spanLatchWait(pid, nowNs() - t0, !ok);
    } else {
        ok = l.tryAcquireExclusive();
    }
    counters_.add(ok ? kExclusiveAcquires : kConflicts);
    return ok;
}

bool
LatchTable::tryUpgrade(PageId pid)
{
    PageLatch &l = latch(pid);
    bool ok;
    if (obs::enabled()) {
        // Upgrade never spins: a failure is an immediate conflict, so
        // only the failing path reports (wait ≈ one CAS).
        std::uint64_t t0 = nowNs();
        ok = l.tryUpgrade();
        if (!ok)
            obs::spanLatchWait(pid, nowNs() - t0, true);
    } else {
        ok = l.tryUpgrade();
    }
    counters_.add(ok ? kUpgrades : kConflicts);
    return ok;
}

void
LatchTable::releaseShared(PageId pid)
{
    latch(pid).releaseShared();
}

void
LatchTable::releaseExclusive(PageId pid)
{
    latch(pid).releaseExclusive();
}

LatchStats
LatchTable::statsSnapshot() const
{
    const auto n = counters_.sum();
    return {.sharedAcquires = n[kSharedAcquires],
            .exclusiveAcquires = n[kExclusiveAcquires],
            .upgrades = n[kUpgrades],
            .conflicts = n[kConflicts]};
}

} // namespace fasp
