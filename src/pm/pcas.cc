#include "pm/pcas.h"

#include <cassert>

#include "pm/checker.h"
#include "pm/device.h"

namespace fasp::pm {

Pcas::Pcas(PmDevice &device, const PcasConfig &config)
    : device_(device), config_(config), rng_(config.seed)
{}

void
Pcas::setConfig(const PcasConfig &config)
{
    config_ = config;
    MutexLock lk(&rngMu_);
    rng_ = Rng(config.seed);
}

const PcasStats
Pcas::stats() const
{
    const auto n = stats_.sum();
    return {.casAttempts = n[kCasAttempts],
            .casCommits = n[kCasCommits],
            .casInjected = n[kCasInjected],
            .casConflicts = n[kCasConflicts],
            .casExhausted = n[kCasExhausted],
            .helps = n[kHelps],
            .mwcasAttempts = 0};
}

bool
Pcas::rollInjectedFail()
{
    if (config_.failProbability <= 0.0)
        return false;
    MutexLock lk(&rngMu_);
    return rng_.nextBool(config_.failProbability);
}

std::uint64_t
Pcas::helpClear(PmOffset off, std::uint64_t tagged)
{
    if (PersistencyChecker *chk = device_.checker())
        chk->onTagSeen(off);
    device_.clflush(off & ~PmOffset{kCacheLineSize - 1});
    device_.sfence();
    clearTag(off, tagged);
    stats_.add(kHelps);
    billPcasHelp();
    return pcasStrip(tagged);
}

void
Pcas::clearTag(PmOffset off, std::uint64_t tagged)
{
    std::uint64_t expected = tagged;
    device_.casU64(off, expected, pcasStrip(tagged));
    // Losing the clear race is fine: the winner stored the same
    // stripped value. Either way the word is untagged now.
    if (PersistencyChecker *chk = device_.checker())
        chk->onTagClear(off);
    // The clear store is deliberately never flushed (a crash that
    // catches the tagged value in the image is resolved by recovery's
    // tag sweep), so tell the checker it is best-effort by contract.
    device_.markScratch(off, 8);
}

PcasResult
Pcas::cas(PmOffset off, std::uint64_t oldVal, std::uint64_t newVal)
{
    assert(off % 8 == 0);
    assert(!pcasTagged(oldVal) && !pcasTagged(newVal));
    SiteScope site(device_, "pm::Pcas::cas");

    for (unsigned attempt = 0; attempt < config_.maxRetries;
         ++attempt) {
        stats_.add(kCasAttempts);
        billPcasAttempt(attempt > 0);
        if (rollInjectedFail()) {
            stats_.add(kCasInjected);
            continue;
        }

        std::uint64_t expected = oldVal;
        // fasp-analyze: allow(v1s) -- a lost CAS writes nothing, and
        // the winning branch clflushes + fences the tagged line; the
        // analyzer models casU64 as an unconditional tagging store.
        if (device_.casU64(off, expected,
                           newVal | kPcasDirtyBit)) {
            if (PersistencyChecker *chk = device_.checker())
                chk->onTagSet(off, device_.eventCount(),
                              device_.site());
            device_.clflush(off & ~PmOffset{kCacheLineSize - 1});
            // fasp-analyze: allow(fence-in-loop) -- protocol fence: the
            // tagged word must be durable before its tag clears.
            device_.sfence();
            clearTag(off, newVal | kPcasDirtyBit);
            stats_.add(kCasCommits);
            return PcasResult::Ok;
        }

        // Lost. If the word holds our expected value under a lingering
        // dirty tag, help it to durability and retry; anything else is
        // a real concurrent modification.
        if (pcasTagged(expected) && pcasStrip(expected) == oldVal) {
            helpClear(off, expected);
            continue;
        }
        stats_.add(kCasConflicts);
        return PcasResult::Conflict;
    }
    stats_.add(kCasExhausted);
    return PcasResult::Exhausted;
}

std::uint64_t
Pcas::read(PmOffset off)
{
    assert(off % 8 == 0);
    std::uint64_t v = device_.loadU64Atomic(off);
    if (!pcasTagged(v))
        return v;
    SiteScope site(device_, "pm::Pcas::read");
    return helpClear(off, v);
}

} // namespace fasp::pm
