#include "pm/checker.h"

#include <algorithm>

namespace fasp::pm {

void
PersistencyChecker::LineInfo::record(LineTraceEvent::Op op,
                                     std::uint64_t eventIndex,
                                     const char *site)
{
    trace[traceHead] = LineTraceEvent{op, eventIndex, site};
    traceHead = static_cast<std::uint8_t>(
        (traceHead + 1) % Violation::kTraceDepth);
    if (traceLen < Violation::kTraceDepth)
        traceLen++;
}

PersistencyChecker::ThreadState &
PersistencyChecker::myState()
{
    return threads_[std::this_thread::get_id()];
}

void
PersistencyChecker::reportLine(ViolationKind kind, PmOffset base,
                               const LineInfo &info,
                               std::uint64_t eventIndex,
                               const char *site)
{
    Violation v;
    v.kind = kind;
    v.lineBase = base;
    v.eventIndex = eventIndex;
    v.site = site;
    v.traceLen = info.traceLen;
    // Copy the ring oldest-first.
    std::size_t oldest =
        (info.traceHead + Violation::kTraceDepth - info.traceLen) %
        Violation::kTraceDepth;
    for (std::size_t i = 0; i < info.traceLen; ++i)
        v.trace[i] = info.trace[(oldest + i) % Violation::kTraceDepth];
    report_.add(std::move(v));
}

void
PersistencyChecker::storeLine(PmOffset base, bool scratch,
                              std::uint64_t eventIndex,
                              const char *site, ThreadState &ts)
{
    LineInfo &li = lines_[base];
    li.record(scratch ? LineTraceEvent::Op::ScratchStore
                      : LineTraceEvent::Op::Store,
              eventIndex, site);
    switch (li.state) {
      case LineState::Clean:
      case LineState::Fenced:
        li.state = LineState::Dirty;
        li.scratchOnly = scratch;
        break;
      case LineState::Dirty:
        if (!scratch)
            li.scratchOnly = false;
        break;
      case LineState::Flushed:
        // Store into the flush->fence window. Judged at the fence: if
        // the line is re-flushed first (adjacent log frames sharing a
        // boundary line do this) the window closed harmlessly.
        li.state = LineState::Dirty;
        if (scratch) {
            li.scratchOnly = true;
        } else {
            li.scratchOnly = false;
            li.flushAmbiguous = true;
        }
        break;
    }
    if (ts.txActive && !scratch && ts.txMembers.insert(base).second)
        ts.txLines.push_back(base);
}

void
PersistencyChecker::onStore(PmOffset off, std::size_t len, bool scratch,
                            std::uint64_t eventIndex, const char *site)
{
    if (len == 0)
        return;
    MutexLock lk(&mu_);
    ThreadState &ts = myState();
    for (PmOffset base = cacheLineBase(off); base < off + len;
         base += kCacheLineSize) {
        storeLine(base, scratch, eventIndex, site, ts);
    }
}

void
PersistencyChecker::onCasStore(PmOffset off, std::uint64_t eventIndex,
                               const char *site)
{
    MutexLock lk(&mu_);
    ThreadState &ts = myState();
    PmOffset base = cacheLineBase(off);
    LineInfo &li = lines_[base];
    li.record(LineTraceEvent::Op::Store, eventIndex, site);
    switch (li.state) {
      case LineState::Clean:
      case LineState::Fenced:
      case LineState::Dirty:
        li.state = LineState::Dirty;
        li.scratchOnly = false;
        break;
      case LineState::Flushed:
        // An 8-byte CAS landing in another thread's flush->fence
        // window is protocol-legal (DESIGN.md §14): the word store is
        // atomic, the earlier flush wrote back a complete line, and
        // whichever pcas caller issued this CAS either flushes +
        // fences it before claiming durability (a publish) or marks
        // it scratch (the lazy tag clear). So the line re-dirties
        // without arming the V4 stale-writeback report.
        li.state = LineState::Dirty;
        li.scratchOnly = false;
        break;
    }
    if (ts.txActive && ts.txMembers.insert(base).second)
        ts.txLines.push_back(base);
}

void
PersistencyChecker::onFlush(PmOffset off, std::uint64_t eventIndex,
                            const char *site)
{
    MutexLock lk(&mu_);
    PmOffset base = cacheLineBase(off);
    LineInfo &li = lines_[base];
    li.record(LineTraceEvent::Op::Flush, eventIndex, site);
    switch (li.state) {
      case LineState::Dirty:
        li.state = LineState::Flushed;
        li.flushAmbiguous = false;
        myState().flushedSinceFence.push_back(base);
        break;
      case LineState::Clean:
      case LineState::Flushed:
      case LineState::Fenced:
        // Nothing dirty to write back. Lines that ever held a PCAS
        // dirty tag are exempt for good: a helping thread cannot know
        // whether the tag owner already flushed — or already cleared,
        // in the window between the helper's tag check and its flush —
        // so the protocol mandates flushes that are only sometimes
        // redundant (DESIGN.md §14). V2 is a perf lint; surrendering
        // it on pcas-managed header lines is the price of helping.
        if (everTaggedLines_.find(base) == everTaggedLines_.end() &&
            !lineHasTaggedWord(base))
            reportLine(ViolationKind::RedundantFlush, base, li,
                       eventIndex, site);
        break;
    }
}

void
PersistencyChecker::onFence(std::uint64_t eventIndex, const char *site)
{
    MutexLock lk(&mu_);
    // SFENCE orders only the calling thread's own write-backs; other
    // threads' flushed lines stay FLUSHED until *they* fence.
    ThreadState &ts = myState();
    for (PmOffset base : ts.flushedSinceFence) {
        auto it = lines_.find(base);
        if (it == lines_.end())
            continue;
        LineInfo &li = it->second;
        if (li.state == LineState::Flushed) {
            li.state = LineState::Fenced;
            li.record(LineTraceEvent::Op::Fence, eventIndex, site);
        } else if (li.state == LineState::Dirty && li.flushAmbiguous) {
            // The store that landed between flush and fence was never
            // re-flushed: the fence ordered a stale writeback and the
            // line can tear at a later crash.
            li.record(LineTraceEvent::Op::Fence, eventIndex, site);
            reportLine(ViolationKind::StoreInFlushFenceWindow, base,
                       li, eventIndex, site);
            li.flushAmbiguous = false;
        }
        // Fenced: duplicate entry for a line flushed twice this epoch.
    }
    ts.flushedSinceFence.clear();
}

void
PersistencyChecker::onCrash()
{
    MutexLock lk(&mu_);
    atRiskAtCrash_.clear();
    for (const auto &[base, li] : lines_) {
        if (li.state == LineState::Dirty)
            atRiskAtCrash_.insert(base);
    }
    lines_.clear();
    threads_.clear();
    // The crash left whatever tag bits were durable in the image;
    // recovery resolves them through the pcas layer. Tracking restarts
    // clean.
    taggedWords_.clear();
    taggedCount_.store(0, std::memory_order_release);
    everTaggedLines_.clear();
}

void
PersistencyChecker::onMarkScratch(PmOffset off, std::size_t len)
{
    if (len == 0)
        return;
    MutexLock lk(&mu_);
    for (PmOffset base = cacheLineBase(off); base < off + len;
         base += kCacheLineSize) {
        auto it = lines_.find(base);
        if (it == lines_.end())
            continue;
        if (it->second.state == LineState::Dirty ||
            it->second.state == LineState::Flushed) {
            it->second.scratchOnly = true;
            it->second.flushAmbiguous = false;
        }
    }
}

void
PersistencyChecker::onTxBegin()
{
    MutexLock lk(&mu_);
    ThreadState &ts = myState();
    if (ts.txActive)
        return; // joined an enclosing transaction
    ts.txActive = true;
    ts.txLines.clear();
    ts.txMembers.clear();
    ts.reported.clear();
}

void
PersistencyChecker::checkLinesPersisted(const std::vector<PmOffset> &lines,
                                        ThreadState &ts,
                                        std::uint64_t eventIndex,
                                        const char *site)
{
    for (PmOffset base : lines) {
        auto it = lines_.find(base);
        if (it == lines_.end())
            continue;
        LineInfo &li = it->second;
        if (li.scratchOnly || ts.reported.count(base))
            continue;
        if (li.state == LineState::Dirty) {
            reportLine(ViolationKind::UnflushedStoreAtCommit, base, li,
                       eventIndex, site);
            ts.reported.insert(base);
        } else if (li.state == LineState::Flushed) {
            reportLine(ViolationKind::UnfencedFlushAtCommit, base, li,
                       eventIndex, site);
            ts.reported.insert(base);
        }
    }
}

void
PersistencyChecker::onTxCommitPoint(std::uint64_t eventIndex,
                                    const char *site)
{
    MutexLock lk(&mu_);
    ThreadState &ts = myState();
    if (!ts.txActive)
        return;
    checkLinesPersisted(ts.txLines, ts, eventIndex, site);
}

void
PersistencyChecker::onTxEnd(bool committed, std::uint64_t eventIndex,
                            const char *site)
{
    MutexLock lk(&mu_);
    ThreadState &ts = myState();
    if (!ts.txActive)
        return;
    if (committed) {
        checkLinesPersisted(ts.txLines, ts, eventIndex, site);
    } else {
        // Aborted: whatever the transaction left dirty is dead data
        // the engine has forgotten; treat it as scratch.
        for (PmOffset base : ts.txLines) {
            auto it = lines_.find(base);
            if (it == lines_.end())
                continue;
            if (it->second.state == LineState::Dirty ||
                it->second.state == LineState::Flushed) {
                it->second.scratchOnly = true;
                it->second.flushAmbiguous = false;
            }
        }
    }
    ts.txLines.clear();
    ts.txMembers.clear();
    ts.reported.clear();
    ts.txActive = false;
}

bool
PersistencyChecker::lineHasTaggedWord(PmOffset base) const
{
    if (taggedWords_.empty())
        return false;
    for (PmOffset w = base; w < base + kCacheLineSize; w += 8) {
        if (taggedWords_.count(w) > 0)
            return true;
    }
    return false;
}

void
PersistencyChecker::onTagSet(PmOffset wordOff, std::uint64_t eventIndex,
                             const char *site)
{
    MutexLock lk(&mu_);
    if (taggedWords_.insert(wordOff).second)
        taggedCount_.store(taggedWords_.size(),
                           std::memory_order_release);
    everTaggedLines_.insert(cacheLineBase(wordOff));
    // The tag publish is a store the pcas layer must still flush; keep
    // the line history readable by recording it.
    lines_[cacheLineBase(wordOff)].record(LineTraceEvent::Op::Store,
                                          eventIndex, site);
}

void
PersistencyChecker::onTagClear(PmOffset wordOff)
{
    MutexLock lk(&mu_);
    if (taggedWords_.erase(wordOff) > 0)
        taggedCount_.store(taggedWords_.size(),
                           std::memory_order_release);
}

void
PersistencyChecker::onTagSeen(PmOffset wordOff)
{
    MutexLock lk(&mu_);
    everTaggedLines_.insert(cacheLineBase(wordOff));
}

void
PersistencyChecker::onRead(PmOffset off, std::size_t len,
                           std::uint64_t eventIndex, const char *site)
{
    if (taggedCount_.load(std::memory_order_acquire) == 0 || len == 0)
        return;
    MutexLock lk(&mu_);
    // Tagged words are 8-aligned; scan the aligned words the read
    // overlaps. The tagged set is tiny (bounded by in-flight CASes),
    // so probe whichever side is smaller.
    PmOffset first = off & ~static_cast<PmOffset>(7);
    PmOffset last = (off + len - 1) & ~static_cast<PmOffset>(7);
    std::size_t words = (last - first) / 8 + 1;
    if (taggedWords_.size() <= words) {
        for (PmOffset w : taggedWords_) {
            if (w >= first && w <= last) {
                reportLine(ViolationKind::TaggedRead, cacheLineBase(w),
                           lines_[cacheLineBase(w)], eventIndex, site);
            }
        }
        return;
    }
    for (PmOffset w = first; w <= last; w += 8) {
        if (taggedWords_.count(w)) {
            reportLine(ViolationKind::TaggedRead, cacheLineBase(w),
                       lines_[cacheLineBase(w)], eventIndex, site);
        }
    }
}

bool
PersistencyChecker::txActive() const
{
    MutexLock lk(&mu_);
    auto it = threads_.find(std::this_thread::get_id());
    return it != threads_.end() && it->second.txActive;
}

void
PersistencyChecker::checkCleanShutdown(std::uint64_t eventIndex)
{
    MutexLock lk(&mu_);
    std::vector<PmOffset> bases;
    for (const auto &[base, li] : lines_) {
        if (li.scratchOnly)
            continue;
        if (li.state == LineState::Dirty ||
            li.state == LineState::Flushed)
            bases.push_back(base);
    }
    std::sort(bases.begin(), bases.end());
    for (PmOffset base : bases) {
        reportLine(ViolationKind::DirtyAtShutdown, base, lines_[base],
                   eventIndex, nullptr);
    }
    // V7: no PCAS dirty tag may survive a *clean* shutdown (a crash
    // may leave tags; recovery clears them lazily).
    std::vector<PmOffset> tagged(taggedWords_.begin(),
                                 taggedWords_.end());
    std::sort(tagged.begin(), tagged.end());
    for (PmOffset w : tagged) {
        reportLine(ViolationKind::UnclearedTag, cacheLineBase(w),
                   lines_[cacheLineBase(w)], eventIndex, nullptr);
    }
}

void
PersistencyChecker::forgiveUnflushed()
{
    MutexLock lk(&mu_);
    for (auto &[base, li] : lines_) {
        if (li.state == LineState::Dirty ||
            li.state == LineState::Flushed) {
            li.scratchOnly = true;
            li.flushAmbiguous = false;
        }
    }
    for (auto &[tid, ts] : threads_)
        ts.flushedSinceFence.clear();
}

PersistencyChecker::LineState
PersistencyChecker::lineState(PmOffset off) const
{
    MutexLock lk(&mu_);
    auto it = lines_.find(cacheLineBase(off));
    return it == lines_.end() ? LineState::Clean : it->second.state;
}

bool
PersistencyChecker::wasAtRiskAtCrash(PmOffset off) const
{
    MutexLock lk(&mu_);
    return atRiskAtCrash_.count(cacheLineBase(off)) > 0;
}

void
PersistencyChecker::reset()
{
    MutexLock lk(&mu_);
    lines_.clear();
    threads_.clear();
    atRiskAtCrash_.clear();
    taggedWords_.clear();
    taggedCount_.store(0, std::memory_order_release);
    report_.clear();
}

} // namespace fasp::pm
