/**
 * @file
 * CoopScheduler: the deterministic cooperative scheduler at the heart
 * of fasp-mc (DESIGN.md §13).
 *
 * The instrumented primitives (fasp::Mutex, pager::PageLatch,
 * pm::PmDevice) raise a SchedulerHook point *before* every visible
 * synchronization or persistence operation. CoopScheduler implements
 * that hook so that at any instant exactly one worker thread is
 * running; every other participant is parked on a per-thread condition
 * variable. When the running thread reaches a point it parks itself and
 * — still holding the scheduler lock — decides who runs next (a
 * decision-vector prefix replays a recorded schedule; past the prefix a
 * deterministic default policy applies) and hands the CPU over
 * directly. OS scheduling therefore never influences the interleaving:
 * the recorded decision vector IS the schedule, and re-running it
 * reproduces the execution bit for bit.
 *
 * Blocking is modelled without ever sleeping inside the primitives:
 * an acquire that fails raises onBlocked and the thread leaves the
 * eligible set until some thread releases the resource (onRelease marks
 * the waiters runnable again — without waking them; the wake happens
 * only when a later decision grants them the CPU and they retry the
 * CAS). Latch acquisition has a second exit: when every runnable thread
 * is latch-blocked the scheduler force-wakes one with a *conflict*
 * verdict (onBlocked returns false), modelling the production
 * spin-budget expiry that turns into a LatchConflict abort. If every
 * blocked thread is mutex-blocked there is no such exit: that is a real
 * deadlock, reported as a violation and the run aborted.
 */

#ifndef FASP_MC_SCHEDULER_H
#define FASP_MC_SCHEDULER_H

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/sched_hook.h"

namespace fasp::mc {

/** Maximum worker threads per run; scenarios use two or three. */
constexpr std::size_t kMaxThreads = 4;

/** The operation a thread is about to perform at its pending point. */
struct PendingOp
{
    HookOp op = HookOp::ThreadStart;
    const void *addr = nullptr;
    std::size_t len = 1;

    /** Stable small id for the resource behind addr: dense
     *  first-seen-order numbering per run, so traces are byte-identical
     *  across processes even though addresses are not. PM addresses are
     *  first rounded down to their 64-byte line. */
    std::uint32_t token = 0;
};

/** One scheduling decision, with everything the explorer needs to
 *  branch: who was eligible, what each eligible thread would have done,
 *  and whether the step was forced (no alternatives exist). */
struct StepRecord
{
    std::uint8_t chosen = 0;
    std::uint8_t prevRunning = 0xff; //!< thread that ran before this
                                     //!< decision (0xff: none)
    bool forced = false;             //!< forced latch-conflict wake
    std::uint8_t eligible = 0;       //!< bitmask of runnable threads
    std::array<PendingOp, kMaxThreads> pending{}; //!< valid where
                                                  //!< eligible (and at
                                                  //!< `chosen` always)
};

/** A property the run violated; the explorer aggregates these. */
struct McViolation
{
    enum class Kind : std::uint8_t {
        Deadlock,      //!< every live thread mutex-blocked
        Livelock,      //!< per-run step budget exhausted
        Checker,       //!< persistency checker reported
        Oracle,        //!< scenario's serializability oracle failed
        Recovery,      //!< recovery on a forked crash image failed
        Fsck,          //!< page invariant (slottedFsck) failed
        ScenarioError, //!< worker body threw / op unexpectedly failed
        Diverged,      //!< replayed prefix did not reproduce
    };

    Kind kind;
    std::string message;
};

const char *mcViolationKindName(McViolation::Kind kind);

/** Thrown into participating threads when the scheduler aborts a run
 *  (deadlock / livelock / divergence): unwinds the worker body. */
struct RunAborted
{};

/** Everything one schedule execution produced. */
struct RunResult
{
    std::vector<StepRecord> steps;
    std::vector<McViolation> violations;
    std::size_t fencePoints = 0; //!< PmFence points granted
};

class CoopScheduler : public SchedulerHook
{
  public:
    struct Options
    {
        /** Decision-vector prefix: steps_[i].chosen is forced to
         *  prefix[i] while i < prefix.size(); past the end the default
         *  policy (continue the previous thread, else lowest eligible)
         *  takes over. */
        std::vector<std::uint8_t> prefix;

        /** Livelock guard: abort the run after this many decisions. */
        std::size_t maxSteps = 200000;
    };

    /** Invoked when a PmFence point is granted, before the fence
     *  executes — the instant a crash image is forked. Runs with every
     *  thread stopped, under the scheduler lock and a HookDepthGuard
     *  (so engine work inside the callback raises no points). May
     *  append violations. */
    using FenceFn = std::function<void(std::size_t fenceIndex,
                                       std::vector<McViolation> &out)>;

    /** Execute one schedule: spawn a thread per body, serialize them
     *  per `opt`, join everything, and report. The hook is installed
     *  for the duration of the call and removed before returning. */
    RunResult run(const std::vector<std::function<void()>> &bodies,
                  const Options &opt, FenceFn onFence = {});

    // --- SchedulerHook ---------------------------------------------------
    void atPoint(HookOp op, const void *addr, std::size_t len) override;
    bool onBlocked(HookOp op, const void *addr) override;
    void onRelease(HookOp op, const void *addr) override;

  private:
    enum class TState : std::uint8_t {
        Spawning, //!< thread created, ThreadStart point not yet parked
        Parked,   //!< at a point, waiting to be granted the CPU
        Running,  //!< the one thread currently executing
        Blocked,  //!< acquire failed; not eligible until a release
        Finished, //!< body returned (or unwound)
    };

    struct ThreadSlot
    {
        TState state = TState::Spawning;
        PendingOp pending{};
        const void *blockedOn = nullptr;
        bool blockedOnLatch = false;
        bool granted = false;
        bool forcedConflict = false;
        bool thrownAbort = false; //!< RunAborted already delivered
        std::condition_variable cv;
    };

    std::uint32_t tokenForLocked(HookOp op, const void *addr);
    void decideLocked(std::unique_lock<std::mutex> &lk);
    void grantLocked(int idx, bool forced);
    void abortRunLocked(McViolation::Kind kind, std::string msg);
    void maybeThrowAbortLocked(int self);
    void finishSelf(int self);
    void workerMain(int idx, const std::function<void()> &body);
    std::size_t countState(TState s) const;
    std::string describeBlockedLocked() const;

    std::mutex mu_;
    std::condition_variable controllerCv_;
    std::array<ThreadSlot, kMaxThreads> threads_;
    std::size_t nthreads_ = 0;
    int running_ = -1;
    std::uint8_t lastRunning_ = 0xff;
    bool aborting_ = false;
    bool done_ = false;
    std::vector<StepRecord> steps_;
    std::vector<McViolation> violations_;
    std::vector<std::uint8_t> prefix_;
    std::size_t maxSteps_ = 0;
    std::size_t fenceCount_ = 0;
    FenceFn onFence_;
    std::map<std::pair<std::uint8_t, std::uintptr_t>, std::uint32_t>
        tokens_;
    std::uint32_t nextToken_ = 0;

    static constinit thread_local int t_self;
};

} // namespace fasp::mc

#endif // FASP_MC_SCHEDULER_H
