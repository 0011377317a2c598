#include "mc/scheduler.h"

#include <sstream>

#include "common/logging.h"

namespace fasp::mc {

constinit thread_local int CoopScheduler::t_self = -1;

const char *
mcViolationKindName(McViolation::Kind kind)
{
    switch (kind) {
      case McViolation::Kind::Deadlock: return "deadlock";
      case McViolation::Kind::Livelock: return "livelock";
      case McViolation::Kind::Checker: return "persistency-checker";
      case McViolation::Kind::Oracle: return "oracle";
      case McViolation::Kind::Recovery: return "recovery";
      case McViolation::Kind::Fsck: return "fsck";
      case McViolation::Kind::ScenarioError: return "scenario-error";
      case McViolation::Kind::Diverged: return "diverged";
    }
    return "unknown";
}

std::size_t
CoopScheduler::countState(TState s) const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < nthreads_; ++i) {
        if (threads_[i].state == s)
            ++n;
    }
    return n;
}

std::uint32_t
CoopScheduler::tokenForLocked(HookOp op, const void *addr)
{
    std::uint8_t cls;
    auto key = reinterpret_cast<std::uintptr_t>(addr);
    switch (op) {
      case HookOp::PmStore:
      case HookOp::PmFlush:
      case HookOp::PmFence:
      case HookOp::PmCas:
        // One token per 64-byte PM line: a flush of a line and a store
        // into it name the same resource.
        cls = 0;
        key >>= 6;
        break;
      case HookOp::MutexLock:
      case HookOp::MutexUnlock:
        cls = 1;
        break;
      case HookOp::LatchAcquireShared:
      case HookOp::LatchAcquireExclusive:
      case HookOp::LatchUpgrade:
      case HookOp::LatchReleaseShared:
      case HookOp::LatchReleaseExclusive:
        cls = 2;
        break;
      default:
        return 0;
    }
    auto [it, fresh] =
        tokens_.try_emplace({cls, key}, nextToken_ + 1);
    if (fresh)
        ++nextToken_;
    return it->second;
}

void
CoopScheduler::maybeThrowAbortLocked(int self)
{
    ThreadSlot &ts = threads_[self];
    if (!ts.thrownAbort) {
        ts.thrownAbort = true;
        // The unique_lock in the caller's frame unlocks during
        // unwinding; after this first throw every later hook call from
        // this thread passes straight through so destructors can run.
        throw RunAborted{};
    }
}

void
CoopScheduler::abortRunLocked(McViolation::Kind kind, std::string msg)
{
    if (aborting_)
        return;
    aborting_ = true;
    violations_.push_back({kind, std::move(msg)});
    for (std::size_t i = 0; i < nthreads_; ++i)
        threads_[i].cv.notify_all();
    controllerCv_.notify_all();
}

std::string
CoopScheduler::describeBlockedLocked() const
{
    std::ostringstream os;
    os << "deadlock:";
    for (std::size_t i = 0; i < nthreads_; ++i) {
        const ThreadSlot &ts = threads_[i];
        if (ts.state != TState::Blocked)
            continue;
        os << " T" << i << " blocked at "
           << hookOpName(ts.pending.op) << " tok#" << ts.pending.token;
    }
    return os.str();
}

void
CoopScheduler::grantLocked(int idx, bool forced)
{
    ThreadSlot &ts = threads_[static_cast<std::size_t>(idx)];
    running_ = idx;
    ts.granted = true;
    ts.forcedConflict = forced;
    ts.cv.notify_one();
}

void
CoopScheduler::decideLocked(std::unique_lock<std::mutex> &lk)
{
    (void)lk;
    if (done_ || aborting_)
        return;
    if (steps_.size() >= maxSteps_) {
        abortRunLocked(McViolation::Kind::Livelock,
                       "per-run step budget exhausted (" +
                           std::to_string(maxSteps_) + " steps)");
        return;
    }

    StepRecord rec;
    rec.prevRunning = lastRunning_;
    std::uint8_t elig = 0;
    for (std::size_t i = 0; i < nthreads_; ++i) {
        if (threads_[i].state == TState::Parked) {
            elig |= static_cast<std::uint8_t>(1u << i);
            rec.pending[i] = threads_[i].pending;
        }
    }

    int chosen = -1;
    bool forced = false;
    if (elig == 0) {
        // Nobody is runnable. A latch waiter can be forced awake with a
        // conflict verdict — the production analogue is the spin budget
        // expiring into a LatchConflict abort. Mutex waiters have no
        // such exit: all-mutex-blocked is a real deadlock.
        for (std::size_t i = 0; i < nthreads_; ++i) {
            if (threads_[i].state == TState::Blocked &&
                threads_[i].blockedOnLatch) {
                chosen = static_cast<int>(i);
                forced = true;
                break;
            }
        }
        if (chosen < 0) {
            if (countState(TState::Blocked) == 0)
                return; // everyone finished; nothing to schedule
            abortRunLocked(McViolation::Kind::Deadlock,
                           describeBlockedLocked());
            return;
        }
        rec.pending[static_cast<std::size_t>(chosen)] =
            threads_[static_cast<std::size_t>(chosen)].pending;
    } else {
        std::size_t s = steps_.size();
        if (s < prefix_.size() && !forced) {
            chosen = prefix_[s];
            if (chosen >= static_cast<int>(nthreads_) ||
                (elig & (1u << chosen)) == 0) {
                abortRunLocked(
                    McViolation::Kind::Diverged,
                    "replay prefix step " + std::to_string(s) +
                        " chose T" + std::to_string(chosen) +
                        " which is not eligible (mask " +
                        std::to_string(elig) + ")");
                return;
            }
        } else if (rec.prevRunning != 0xff &&
                   (elig & (1u << rec.prevRunning)) != 0 &&
                   threads_[rec.prevRunning].pending.op !=
                       HookOp::UserYield) {
            chosen = rec.prevRunning; // run-to-completion default
        } else if (rec.prevRunning != 0xff &&
                   (elig & (1u << rec.prevRunning)) != 0) {
            // Fair handoff at a voluntary yield: the production retry
            // loop yields the CPU so a latch holder can finish, and a
            // default policy that kept running the yielder would
            // starve the holder forever (the CHESS fairness problem).
            // Round-robin to the next eligible thread; the yielder
            // continues only if it is alone.
            chosen = rec.prevRunning;
            for (std::size_t d = 1; d < nthreads_; ++d) {
                std::size_t i = (rec.prevRunning + d) % nthreads_;
                if (elig & (1u << i)) {
                    chosen = static_cast<int>(i);
                    break;
                }
            }
        } else {
            for (std::size_t i = 0; i < nthreads_; ++i) {
                if (elig & (1u << i)) {
                    chosen = static_cast<int>(i);
                    break;
                }
            }
        }
    }

    rec.chosen = static_cast<std::uint8_t>(chosen);
    rec.forced = forced;
    rec.eligible = elig;
    steps_.push_back(rec);

    if (!forced &&
        threads_[static_cast<std::size_t>(chosen)].pending.op ==
            HookOp::PmFence) {
        std::size_t fi = fenceCount_++;
        if (onFence_) {
            // The callback forks a crash image and runs recovery on a
            // scratch device; the depth guard keeps that work invisible
            // to scheduling (its latches/mutexes must not be shared
            // with the stopped run).
            HookDepthGuard depth_guard;
            onFence_(fi, violations_);
        }
        if (aborting_)
            return;
    }

    grantLocked(chosen, forced);
}

void
CoopScheduler::atPoint(HookOp op, const void *addr, std::size_t len)
{
    int self = t_self;
    if (self < 0)
        return;
    std::unique_lock<std::mutex> lk(mu_);
    ThreadSlot &ts = threads_[static_cast<std::size_t>(self)];
    if (aborting_) {
        maybeThrowAbortLocked(self);
        return;
    }
    ts.pending = PendingOp{op, addr, len, tokenForLocked(op, addr)};
    if (ts.state == TState::Spawning) {
        // Initial ThreadStart point: park and let the controller kick
        // the first decision once every worker has arrived.
        ts.state = TState::Parked;
        if (countState(TState::Parked) == nthreads_)
            controllerCv_.notify_all();
    } else {
        ts.state = TState::Parked;
        running_ = -1;
        lastRunning_ = static_cast<std::uint8_t>(self);
        decideLocked(lk);
        if (aborting_ && !ts.granted) {
            maybeThrowAbortLocked(self);
            return;
        }
    }
    ts.cv.wait(lk, [&] { return ts.granted || aborting_; });
    if (aborting_ && !ts.granted) {
        maybeThrowAbortLocked(self);
        return;
    }
    ts.granted = false;
    ts.forcedConflict = false;
    ts.state = TState::Running;
}

bool
CoopScheduler::onBlocked(HookOp op, const void *addr)
{
    int self = t_self;
    if (self < 0)
        return true;
    std::unique_lock<std::mutex> lk(mu_);
    ThreadSlot &ts = threads_[static_cast<std::size_t>(self)];
    if (aborting_) {
        maybeThrowAbortLocked(self);
        return true;
    }
    ts.state = TState::Blocked;
    ts.blockedOn = addr;
    ts.blockedOnLatch = (op == HookOp::LatchAcquireShared ||
                         op == HookOp::LatchAcquireExclusive ||
                         op == HookOp::LatchUpgrade);
    running_ = -1;
    lastRunning_ = static_cast<std::uint8_t>(self);
    decideLocked(lk);
    if (aborting_ && !ts.granted) {
        maybeThrowAbortLocked(self);
        return true;
    }
    ts.cv.wait(lk, [&] { return ts.granted || aborting_; });
    if (aborting_ && !ts.granted) {
        maybeThrowAbortLocked(self);
        return true;
    }
    bool forced = ts.forcedConflict;
    ts.granted = false;
    ts.forcedConflict = false;
    ts.blockedOn = nullptr;
    ts.blockedOnLatch = false;
    ts.state = TState::Running;
    return !forced;
}

void
CoopScheduler::onRelease(HookOp op, const void *addr)
{
    (void)op;
    int self = t_self;
    if (self < 0)
        return;
    std::unique_lock<std::mutex> lk(mu_);
    if (aborting_)
        return;
    // Waiters become eligible again but are NOT woken: they stay
    // physically parked in onBlocked until a later decision grants them
    // the CPU and they retry their acquire. A release is not itself a
    // scheduling point — the releasing thread keeps running.
    for (std::size_t i = 0; i < nthreads_; ++i) {
        ThreadSlot &t = threads_[i];
        if (t.state == TState::Blocked && t.blockedOn == addr)
            t.state = TState::Parked;
    }
}

void
CoopScheduler::finishSelf(int self)
{
    std::unique_lock<std::mutex> lk(mu_);
    threads_[static_cast<std::size_t>(self)].state = TState::Finished;
    if (running_ == self)
        running_ = -1;
    lastRunning_ = 0xff;
    if (countState(TState::Finished) == nthreads_) {
        done_ = true;
        controllerCv_.notify_all();
        return;
    }
    if (!aborting_)
        decideLocked(lk);
}

void
CoopScheduler::workerMain(int idx, const std::function<void()> &body)
{
    t_self = idx;
    setThreadParticipating(true);
    try {
        atPoint(HookOp::ThreadStart, nullptr, 1);
        body();
    } catch (const RunAborted &) {
        // Aborted run unwinding; the violation is already recorded.
    } catch (const std::exception &e) {
        std::unique_lock<std::mutex> lk(mu_);
        abortRunLocked(McViolation::Kind::ScenarioError,
                       "T" + std::to_string(idx) +
                           " threw: " + e.what());
    } catch (...) {
        std::unique_lock<std::mutex> lk(mu_);
        abortRunLocked(McViolation::Kind::ScenarioError,
                       "T" + std::to_string(idx) +
                           " threw a non-std exception");
    }
    setThreadParticipating(false);
    finishSelf(idx);
    t_self = -1;
}

RunResult
CoopScheduler::run(const std::vector<std::function<void()>> &bodies,
                   const Options &opt, FenceFn onFence)
{
    if (bodies.size() > kMaxThreads || bodies.empty())
        faspPanic("CoopScheduler::run: %zu bodies (max %zu)",
                  bodies.size(), kMaxThreads);

    nthreads_ = bodies.size();
    for (auto &ts : threads_) {
        ts.state = TState::Spawning;
        ts.pending = PendingOp{};
        ts.blockedOn = nullptr;
        ts.blockedOnLatch = false;
        ts.granted = false;
        ts.forcedConflict = false;
        ts.thrownAbort = false;
    }
    running_ = -1;
    lastRunning_ = 0xff;
    aborting_ = false;
    done_ = false;
    steps_.clear();
    violations_.clear();
    prefix_ = opt.prefix;
    maxSteps_ = opt.maxSteps;
    fenceCount_ = 0;
    onFence_ = std::move(onFence);
    tokens_.clear();
    nextToken_ = 0;

    installSchedulerHook(this);
    std::vector<std::thread> workers;
    workers.reserve(nthreads_);
    for (std::size_t i = 0; i < nthreads_; ++i) {
        workers.emplace_back([this, i, &bodies] {
            workerMain(static_cast<int>(i), bodies[i]);
        });
    }
    {
        std::unique_lock<std::mutex> lk(mu_);
        controllerCv_.wait(lk, [&] {
            return countState(TState::Parked) == nthreads_ || done_ ||
                   aborting_;
        });
        if (!done_ && !aborting_)
            decideLocked(lk);
        controllerCv_.wait(lk, [&] { return done_; });
    }
    for (auto &w : workers)
        w.join();
    installSchedulerHook(nullptr);

    RunResult res;
    res.steps = std::move(steps_);
    res.violations = std::move(violations_);
    res.fencePoints = fenceCount_;
    onFence_ = {};
    return res;
}

} // namespace fasp::mc
