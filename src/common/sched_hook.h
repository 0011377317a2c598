/**
 * @file
 * The fasp-mc scheduler hook: the seam between the annotated
 * synchronization/persistence wrappers and the model checker.
 *
 * Every scheduling-relevant event goes through a closed set of
 * wrappers: fasp::Mutex (thread_annotations.h), PageLatch
 * (pager/latch_table.h) and PmDevice (pm/device.h). This header gives
 * those wrappers one optional indirection point — a process-global
 * SchedulerHook — that the cooperative model-check scheduler (src/mc)
 * installs to serialize participating threads at every such event and
 * enumerate their interleavings.
 *
 * Cost when no checker runs: one relaxed thread_local read per
 * wrapper operation (activeHook() returns nullptr unless the calling
 * thread opted in), so production and benchmark paths are unaffected.
 *
 * Re-entrancy: wrapper implementations take *internal* locks of their
 * own (the device's cache-shard mutexes, the checker's bookkeeping
 * mutex). Those must not become scheduling points — they are
 * invisible implementation detail, and parking inside them would
 * deadlock the scheduler itself. Every wrapper therefore raises
 * its hook point first and then enters a HookDepthGuard scope, which
 * suppresses nested hook calls on the same thread.
 *
 * Deliberately include-light (this header is pulled in by
 * thread_annotations.h): nothing but <atomic>/<cstdint>.
 */

#ifndef FASP_COMMON_SCHED_HOOK_H
#define FASP_COMMON_SCHED_HOOK_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fasp::mc {

/** The kinds of interception points the wrappers raise. */
enum class HookOp : std::uint8_t {
    ThreadStart = 0,       //!< worker registered, about to run its body
    ThreadFinish,          //!< worker body returned
    MutexLock,             //!< fasp::Mutex acquire attempt
    MutexUnlock,           //!< fasp::Mutex release (post-release notify)
    LatchAcquireShared,    //!< PageLatch shared acquire attempt
    LatchAcquireExclusive, //!< PageLatch exclusive acquire attempt
    LatchUpgrade,          //!< PageLatch shared->exclusive attempt
    LatchReleaseShared,    //!< PageLatch shared release
    LatchReleaseExclusive, //!< PageLatch exclusive release
    PmStore,               //!< PmDevice::write/writeScratch
    PmFlush,               //!< PmDevice::clflush
    PmFence,               //!< PmDevice::sfence
    UserYield,             //!< explicit mc::yieldPoint() in a scenario
    PmCas,                 //!< PmDevice::casU64 (persistent CAS attempt)
};

const char *hookOpName(HookOp op);

/**
 * Installed by the model checker; called by the wrappers on
 * *participating* threads only (see setThreadParticipating).
 *
 * Protocol, per wrapper operation:
 *
 *   atPoint(op, addr, len)  raised BEFORE the operation takes effect.
 *       The hook may park the calling thread and run others; when it
 *       returns, the thread owns the (logical) CPU and performs the
 *       operation. @p addr identifies the resource (mutex/latch
 *       object address, or durable-image byte address for PM ops) and
 *       @p len its extent (PM ops; 1 otherwise).
 *
 *   onBlocked(op, addr)     the operation could not take effect (mutex
 *       already held, latch CAS failed). The thread is descheduled
 *       until the resource is released — return true to retry the
 *       operation — or until the scheduler force-wakes it to take its
 *       bounded-wait conflict path — return false (latches only:
 *       the caller returns acquisition failure, which the engines turn
 *       into a LatchConflict abort-retry).
 *
 *   onRelease(op, addr)     raised AFTER a release made the resource
 *       available, so the hook can mark blocked threads runnable. Not
 *       itself a scheduling point (the releasing thread keeps running
 *       until its next atPoint).
 */
class SchedulerHook
{
  public:
    virtual ~SchedulerHook() = default;

    virtual void atPoint(HookOp op, const void *addr,
                         std::size_t len) = 0;
    virtual bool onBlocked(HookOp op, const void *addr) = 0;
    virtual void onRelease(HookOp op, const void *addr) = 0;
};

namespace detail {
extern std::atomic<SchedulerHook *> g_hook;
// constinit: no dynamic initialization, so other TUs read these
// directly instead of through a TLS init wrapper.
extern constinit thread_local bool t_participating;
extern constinit thread_local int t_hookDepth;
} // namespace detail

/** The hook to raise from the calling context, or nullptr (the common
 *  case: no checker installed, thread not participating, or inside a
 *  HookDepthGuard). */
inline SchedulerHook *
activeHook()
{
    if (!detail::t_participating || detail::t_hookDepth != 0)
        return nullptr;
    return detail::g_hook.load(std::memory_order_acquire);
}

/** Install @p hook process-wide (nullptr to remove). Quiescent only:
 *  no participating thread may be running. */
void installSchedulerHook(SchedulerHook *hook);

/** Opt the calling thread in/out of interception. Worker threads of a
 *  model-check run opt in; the controller and all ordinary threads
 *  never do. */
void setThreadParticipating(bool on);

bool threadParticipating();

/**
 * Suppresses hook points on the calling thread for its scope. Wrappers
 * enter one right after raising their own point, so the internal locks
 * they take never become scheduling points; the model checker itself
 * uses it to run recovery/oracle code on a forked crash image from a
 * participating thread's context.
 */
class HookDepthGuard
{
  public:
    HookDepthGuard() { ++detail::t_hookDepth; }
    ~HookDepthGuard() { --detail::t_hookDepth; }

    HookDepthGuard(const HookDepthGuard &) = delete;
    HookDepthGuard &operator=(const HookDepthGuard &) = delete;
};

/** Explicit scheduling point for model-check scenario bodies: marks a
 *  spot where unsynchronized code interleaves (e.g. between the read
 *  and the write of a read-modify-write). No-op outside a run. */
inline void
yieldPoint()
{
    if (SchedulerHook *h = activeHook())
        h->atPoint(HookOp::UserYield, nullptr, 1);
}

} // namespace fasp::mc

#endif // FASP_COMMON_SCHED_HOOK_H
