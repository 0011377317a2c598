#include "pm/pcas.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <thread>

#include "pm/checker.h"
#include "pm/device.h"

namespace fasp::pm {

namespace {

/** Distinct cache-line bases of @p count sorted word offsets, flushed
 *  once each. Fence once after — never inside — the loop. */
template <typename OffOf>
void
flushWordLines(PmDevice &device, std::size_t count, OffOf offOf)
{
    PmOffset lastLine = ~PmOffset{0};
    for (std::size_t i = 0; i < count; ++i) {
        PmOffset line = offOf(i) & ~PmOffset{kCacheLineSize - 1};
        if (line != lastLine) {
            device.clflush(line);
            lastLine = line;
        }
    }
}

} // namespace

Pcas::Pcas(PmDevice &device, PmOffset descRegionOff,
           const PcasConfig &config)
    : device_(device), descOff_(descRegionOff), config_(config),
      rng_(config.seed)
{
    assert(descRegionOff % 8 == 0);
}

PmOffset
Pcas::slotOff(std::size_t slot) const
{
    return descOff_ + slot * kDescSlotBytes;
}

PmOffset
Pcas::entryOff(std::size_t slot, std::size_t i) const
{
    return slotOff(slot) + 16 + i * 24;
}

std::uint64_t
Pcas::descPtr(std::size_t slot)
{
    return kPmwcasDescBit | static_cast<std::uint64_t>(slot);
}

void
Pcas::setConfig(const PcasConfig &config)
{
    config_ = config;
    MutexLock lk(&rngMu_);
    rng_ = Rng(config.seed);
}

bool
Pcas::rollInjectedFail()
{
    if (config_.failProbability <= 0.0)
        return false;
    MutexLock lk(&rngMu_);
    return rng_.nextBool(config_.failProbability);
}

unsigned
Pcas::acquireSlot()
{
    for (;;) {
        std::uint32_t mask = slotMask_.load(std::memory_order_relaxed);
        unsigned slot = 0;
        while (slot < kDescSlots && (mask & (1u << slot)) != 0)
            ++slot;
        if (slot == kDescSlots) {
            // More concurrent mwcas()es than slots: extremely rare
            // (16 slots vs. per-page latched commits). Wait one out.
            std::this_thread::yield();
            continue;
        }
        if (slotMask_.compare_exchange_weak(mask, mask | (1u << slot),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
            return slot;
    }
}

void
Pcas::releaseSlot(unsigned slot)
{
    slotMask_.fetch_and(~(1u << slot), std::memory_order_acq_rel);
}

std::uint64_t
Pcas::helpClear(PmOffset off, std::uint64_t tagged)
{
    device_.clflush(off & ~PmOffset{kCacheLineSize - 1});
    device_.sfence();
    clearTag(off, tagged);
    stats_.helps.fetch_add(1, std::memory_order_relaxed);
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
        stats_.casAttempts.fetch_add(1, std::memory_order_relaxed);
        billPcasAttempt(attempt > 0);
        if (rollInjectedFail()) {
            stats_.casInjected.fetch_add(1, std::memory_order_relaxed);
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
            stats_.casCommits.fetch_add(1, std::memory_order_relaxed);
            return PcasResult::Ok;
        }

        // Lost. If the word holds our expected value under a lingering
        // dirty tag, help it to durability and retry; anything else is
        // a real concurrent modification.
        if ((expected & kPcasDirtyBit) != 0 &&
            (expected & kPmwcasDescBit) == 0 &&
            pcasStrip(expected) == oldVal) {
            helpClear(off, expected);
            continue;
        }
        stats_.casConflicts.fetch_add(1, std::memory_order_relaxed);
        return PcasResult::Conflict;
    }
    stats_.casExhausted.fetch_add(1, std::memory_order_relaxed);
    return PcasResult::Exhausted;
}

PcasResult
Pcas::mwcas(const MwcasEntry *entries, std::size_t count)
{
    assert(count >= 1 && count <= kMaxMwcasWords);
    SiteScope site(device_, "pm::Pcas::mwcas");

    // Install in ascending address order so two overlapping mwcas()es
    // meet on the lowest shared word instead of deadlocking.
    std::array<MwcasEntry, kMaxMwcasWords> sorted{};
    std::copy(entries, entries + count, sorted.begin());
    std::sort(sorted.begin(), sorted.begin() + count,
              [](const MwcasEntry &a, const MwcasEntry &b) {
                  return a.off < b.off;
              });
    for (std::size_t i = 0; i < count; ++i) {
        assert(sorted[i].off % 8 == 0);
        assert(!pcasTagged(sorted[i].oldVal) &&
               !pcasTagged(sorted[i].newVal));
        assert(i == 0 || sorted[i - 1].off != sorted[i].off);
    }

    for (unsigned attempt = 0; attempt < config_.maxRetries;
         ++attempt) {
        stats_.mwcasAttempts.fetch_add(1, std::memory_order_relaxed);
        billPcasAttempt(attempt > 0);
        if (rollInjectedFail()) {
            stats_.mwcasInjected.fetch_add(1,
                                           std::memory_order_relaxed);
            continue;
        }

        unsigned slot = acquireSlot();

        // Persist the descriptor body first, then flip it Active: a
        // durable Active status therefore implies durable entries, so
        // recovery never rolls back through torn addresses.
        device_.writeU64(slotOff(slot) + 8, count);
        for (std::size_t i = 0; i < count; ++i) {
            // fasp-analyze: allow(v1s) -- every entry word lies inside
            // the flushRange(slotOff(slot), 16 + count*24) extent
            // below; entryOff arithmetic is opaque to the analyzer.
            device_.writeU64(entryOff(slot, i) + 0, sorted[i].off);
            // fasp-analyze: allow(v1s) -- extent-covered (see above).
            device_.writeU64(entryOff(slot, i) + 8, sorted[i].oldVal);
            // fasp-analyze: allow(v1s) -- extent-covered (see above).
            device_.writeU64(entryOff(slot, i) + 16,
                             sorted[i].newVal);
        }
        device_.flushRange(slotOff(slot), 16 + count * 24);
        // fasp-analyze: allow(fence-in-loop) -- protocol fence: entries
        // must be durable before the status word flips Active.
        device_.sfence();
        device_.writeU64(slotOff(slot), kSlotActive);
        device_.clflush(slotOff(slot));
        // fasp-analyze: allow(fence-in-loop) -- protocol fence: a durable
        // Active status must precede any descriptor-pointer install.
        device_.sfence();

        PcasResult r = mwcasAttempt(slot, sorted.data(), count);
        // The slot's lines leave this thread's exclusion here, before
        // the caller's transaction ends: settle them against its write
        // set now, so the next occupant's descriptor stores are never
        // checked as this transaction's (DESIGN.md §9).
        device_.txRelease(slotOff(slot), kDescSlotBytes);
        releaseSlot(slot);
        if (r == PcasResult::Ok) {
            stats_.mwcasCommits.fetch_add(1,
                                          std::memory_order_relaxed);
            return r;
        }
        stats_.mwcasConflicts.fetch_add(1, std::memory_order_relaxed);
        return PcasResult::Conflict;
    }
    stats_.mwcasExhausted.fetch_add(1, std::memory_order_relaxed);
    return PcasResult::Exhausted;
}

PcasResult
Pcas::mwcasAttempt(unsigned slot, const MwcasEntry *entries,
                   std::size_t count)
{
    const std::uint64_t ptr = descPtr(slot);
    PersistencyChecker *chk = device_.checker();

    // Phase 1: install the descriptor pointer into every target word.
    std::size_t installed = 0;
    for (; installed < count; ++installed) {
        const MwcasEntry &e = entries[installed];
        std::uint64_t expected = e.oldVal;
        // fasp-analyze: allow(v1s) -- installed pointers are flushed
        // by the flushWordLines() helper after the loop, outside this
        // intraprocedural view; a lost CAS writes nothing.
        bool ok = device_.casU64(e.off, expected, ptr);
        if (!ok && (expected & kPcasDirtyBit) != 0 &&
            (expected & kPmwcasDescBit) == 0 &&
            pcasStrip(expected) == e.oldVal) {
            helpClear(e.off, expected);
            expected = e.oldVal;
            // fasp-analyze: allow(v1s) -- same flushWordLines()
            // delegation as the first install attempt above.
            ok = device_.casU64(e.off, expected, ptr);
        }
        if (!ok) {
            rollBackInstall(slot, entries, installed);
            return PcasResult::Conflict;
        }
        if (chk != nullptr)
            chk->onTagSet(e.off, device_.eventCount(),
                          device_.site());
    }
    flushWordLines(device_, count,
                   [&](std::size_t i) { return entries[i].off; });
    device_.sfence();

    // Commit point: a durable Succeeded status decides the mwcas. The
    // fence above guarantees no target word can still hold its old
    // value in the durable image past this flip.
    device_.writeU64(slotOff(slot), kSlotSucceeded);
    device_.clflush(slotOff(slot));
    device_.sfence();

    // Phase 2: replace pointers with tagged new values, persist them,
    // then clear the tags lazily (see clearTag).
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t expected = ptr;
        // fasp-analyze: allow(v1s) -- tagged values are flushed by
        // flushWordLines() after the loop and their tags cleared
        // lazily by clearTag (recovery strips any survivor).
        device_.casU64(entries[i].off, expected,
                       entries[i].newVal | kPcasDirtyBit);
    }
    flushWordLines(device_, count,
                   [&](std::size_t i) { return entries[i].off; });
    device_.sfence();
    for (std::size_t i = 0; i < count; ++i)
        clearTag(entries[i].off, entries[i].newVal | kPcasDirtyBit);

    // Free the slot durably before DRAM reuse, so a crash during the
    // next occupant's descriptor write can never pair a stale Active
    // status with half-written entries.
    device_.writeU64(slotOff(slot), kSlotFree);
    device_.clflush(slotOff(slot));
    device_.sfence();
    return PcasResult::Ok;
}

void
Pcas::rollBackInstall(unsigned slot, const MwcasEntry *entries,
                      std::size_t installed)
{
    const std::uint64_t ptr = descPtr(slot);
    PersistencyChecker *chk = device_.checker();
    for (std::size_t i = 0; i < installed; ++i) {
        std::uint64_t expected = ptr;
        // fasp-analyze: allow(v1s) -- rolled-back words are flushed by
        // the flushWordLines() call below (installed > 0 whenever this
        // loop ran); a lost CAS writes nothing.
        device_.casU64(entries[i].off, expected, entries[i].oldVal);
        if (chk != nullptr)
            chk->onTagClear(entries[i].off);
    }
    if (installed > 0) {
        flushWordLines(device_, installed, [&](std::size_t i) {
            return entries[i].off;
        });
        device_.sfence();
    }
    // As in the success path: Free must be durable before slot reuse.
    device_.writeU64(slotOff(slot), kSlotFree);
    device_.clflush(slotOff(slot));
    device_.sfence();
}

std::uint64_t
Pcas::read(PmOffset off)
{
    assert(off % 8 == 0);
    for (;;) {
        std::uint64_t v = device_.loadU64Atomic(off);
        if ((v & kPmwcasDescBit) == 0) {
            if ((v & kPcasDirtyBit) == 0)
                return v;
            SiteScope site(device_, "pm::Pcas::read");
            return helpClear(off, v);
        }

        // Descriptor pointer: resolve the logical value against the
        // descriptor instead of mutating the word (phase 2 belongs to
        // the owner; our linearization point is the status we read).
        SiteScope site(device_, "pm::Pcas::read");
        auto slot = static_cast<std::size_t>(pcasStrip(v));
        if (slot >= kDescSlots)
            continue; // torn garbage; re-read resolves
        std::uint64_t status = device_.readU64(slotOff(slot));
        std::uint64_t cnt = device_.readU64(slotOff(slot) + 8);
        if ((status != kSlotActive && status != kSlotSucceeded) ||
            cnt > kMaxMwcasWords)
            continue; // descriptor already freed; word has moved on
        bool found = false;
        std::uint64_t oldVal = 0;
        std::uint64_t newVal = 0;
        for (std::size_t i = 0; i < cnt && !found; ++i) {
            if (device_.readU64(entryOff(slot, i)) == off) {
                oldVal = device_.readU64(entryOff(slot, i) + 8);
                newVal = device_.readU64(entryOff(slot, i) + 16);
                found = true;
            }
        }
        if (!found || device_.loadU64Atomic(off) != v)
            continue; // slot was recycled under us; re-read
        return status == kSlotSucceeded ? newVal : oldVal;
    }
}

void
Pcas::recover()
{
    SiteScope site(device_, "pm::Pcas::recover");
    for (std::size_t slot = 0; slot < kDescSlots; ++slot) {
        std::uint64_t status = device_.readU64(slotOff(slot));
        if (status != kSlotActive && status != kSlotSucceeded)
            continue; // Free (or never-written zeroes): nothing held
        std::uint64_t cnt = device_.readU64(slotOff(slot) + 8);
        if (cnt > kMaxMwcasWords)
            cnt = 0; // unreachable by protocol; stay defensive
        const std::uint64_t ptr = descPtr(slot);
        for (std::size_t i = 0; i < cnt; ++i) {
            PmOffset addr = device_.readU64(entryOff(slot, i));
            std::uint64_t oldVal =
                device_.readU64(entryOff(slot, i) + 8);
            std::uint64_t newVal =
                device_.readU64(entryOff(slot, i) + 16);
            std::uint64_t cur = device_.readU64(addr);
            if (status == kSlotSucceeded) {
                // Roll forward: the fence before the Succeeded flip
                // rules out `old` here; rewrite both transient forms.
                if (cur == ptr || cur == (newVal | kPcasDirtyBit)) {
                    device_.writeU64(addr, newVal);
                    device_.clflush(addr &
                                    ~PmOffset{kCacheLineSize - 1});
                }
            } else {
                if (cur == ptr) {
                    device_.writeU64(addr, oldVal);
                    device_.clflush(addr &
                                    ~PmOffset{kCacheLineSize - 1});
                }
            }
        }
        if (status == kSlotSucceeded)
            stats_.recoveredForward.fetch_add(
                1, std::memory_order_relaxed);
        else
            stats_.recoveredBack.fetch_add(1,
                                           std::memory_order_relaxed);
        device_.writeU64(slotOff(slot), kSlotFree);
        device_.clflush(slotOff(slot));
    }
    device_.sfence();
    slotMask_.store(0, std::memory_order_release);
}

} // namespace fasp::pm
