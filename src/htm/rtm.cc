#include "htm/rtm.h"

#include <thread>

#include "common/logging.h"
#include "pm/device.h"

namespace fasp::htm {

void
RtmRegion::write(PmOffset off, const void *src, std::size_t len)
{
    StagedWrite staged;
    staged.off = off;
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    staged.bytes.assign(bytes, bytes + len);
    writes_.push_back(std::move(staged));
}

Rtm::Rtm(pm::PmDevice &device, const RtmConfig &config)
    : device_(device), config_(config), rng_(config.seed),
      lineLocks_(kLineLockSlots)
{}

void
Rtm::setConfig(const RtmConfig &config)
{
    // Quiescent-only by contract, but reseeding under the RNG mutex
    // costs nothing and keeps the guard discipline uniform.
    config_ = config;
    MutexLock lk(&rngMu_);
    rng_ = Rng(config.seed);
}

PmOffset
Rtm::writeLine(const RtmRegion &region)
{
    bool have_line = false;
    PmOffset line = 0;
    for (const auto &staged : region.writes_) {
        if (staged.bytes.empty())
            continue;
        PmOffset first = cacheLineBase(staged.off);
        PmOffset last =
            cacheLineBase(staged.off + staged.bytes.size() - 1);
        if (first != last) {
            faspPanic("RTM write set spans multiple cache lines "
                      "(off=%llu len=%zu)",
                      static_cast<unsigned long long>(staged.off),
                      staged.bytes.size());
        }
        if (!have_line) {
            line = first;
            have_line = true;
        } else if (line != first) {
            faspPanic("RTM write set touches two cache lines "
                      "(%llu and %llu)",
                      static_cast<unsigned long long>(line),
                      static_cast<unsigned long long>(first));
        }
    }
    return line;
}

bool
Rtm::rollInjectedAbort()
{
    if (config_.abortProbability <= 0.0)
        return false;
    MutexLock lk(&rngMu_);
    return rng_.nextBool(config_.abortProbability);
}

bool
Rtm::tryApply(const RtmRegion &region, PmOffset line)
{
    auto &lock = lineLocks_[(line / kCacheLineSize) *
                            0x9e3779b97f4a7c15ull % kLineLockSlots];
    std::uint8_t expected = 0;
    if (!lock.compare_exchange_strong(expected, 1,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        // Another thread is committing to this line right now: the
        // hardware would have aborted us the moment its store
        // invalidated our read/write set.
        return false;
    }
    // XEND: the staged stores become visible. They remain volatile (in
    // the simulated CPU cache) until the caller flushes them, and since
    // the write set is one line they can never be torn by a crash.
    for (const auto &staged : region.writes_)
        device_.write(staged.off, staged.bytes.data(),
                      staged.bytes.size());
    lock.store(0, std::memory_order_release);
    return true;
}

Rtm::Outcome
Rtm::attemptOnce(const std::function<void(RtmRegion &)> &body)
{
    stats_.begins.fetch_add(1, std::memory_order_relaxed);
    RtmRegion region;
    body(region);
    PmOffset line = writeLine(region);

    if (rollInjectedAbort()) {
        stats_.aborts.fetch_add(1, std::memory_order_relaxed);
        stats_.abortsInjected.fetch_add(1, std::memory_order_relaxed);
        return Outcome::AbortInjected;
    }
    if (!tryApply(region, line)) {
        stats_.aborts.fetch_add(1, std::memory_order_relaxed);
        stats_.abortsContention.fetch_add(
            1, std::memory_order_relaxed);
        return Outcome::AbortContention;
    }
    stats_.commits.fetch_add(1, std::memory_order_relaxed);
    return Outcome::Committed;
}

bool
Rtm::execute(const std::function<void(RtmRegion &)> &body)
{
    mc::SchedulerHook *h = mc::activeHook();
    for (unsigned attempt = 0; attempt <= config_.maxRetries; ++attempt) {
        if (h)
            h->atPoint(mc::HookOp::RtmBegin, this, 1);
        Outcome out;
        {
            // Under fasp-mc the whole attempt executes atomically: on
            // real RTM no other thread can observe an intermediate
            // state of a transaction (stores are invisible until
            // XEND), so interleavings inside the region are
            // unobservable and exploring them would only blow up the
            // schedule space. Contention aborts are therefore not
            // exercised under the model checker (the TSan stress suite
            // covers them); injected aborts are.
            mc::HookDepthGuard hook_depth;
            out = attemptOnce(body);
        }
        switch (out) {
          case Outcome::Committed:
            if (h)
                h->atPoint(mc::HookOp::RtmCommit, this, 1);
            return true;
          case Outcome::AbortContention:
            // Brief pause so the winning committer can finish before we
            // re-execute the body against the updated line.
            std::this_thread::yield();
            [[fallthrough]];
          case Outcome::AbortInjected:
            if (h)
                h->atPoint(mc::HookOp::RtmAbort, this, 1);
            continue;
        }
    }
    stats_.fallbacks.fetch_add(1, std::memory_order_relaxed);
    return false;
}

} // namespace fasp::htm
