// fasp-analyze: allow-file(raw-std-sync) -- lock-free span ring, latch
// aggregates, and heat sketch; records scheduling, never participates
// in it.
#include "obs/span.h"

#include <algorithm>

namespace fasp::obs {

namespace {

/** Linear probes before the heat sketch gives up on a page. */
constexpr std::size_t kHeatProbes = 8;

/** Accesses between sketch decay passes (counts halve, so a page must
 *  keep earning its cell to stay hot; cells decayed to zero free up). */
constexpr std::uint64_t kHeatDecayPeriod = 1u << 16;

/** The calling thread's in-flight span and its ledger at begin; the
 *  end-side ledger deltas are the span's per-phase wall time, PM
 *  events and PCAS counts. */
struct ActiveSpan
{
    bool active = false;
    std::uint64_t t0 = 0;
    pm::ThreadTotals base;
    TxSpan span;
};

thread_local ActiveSpan t_span;

std::atomic<std::uint64_t> g_profilerIds{0};

} // namespace

// --- Hot-path free functions -------------------------------------------

void
spanBegin(const char *engine, std::uint8_t engineCode,
          std::uint64_t txId)
{
    if (!enabled())
        return;
    ActiveSpan &s = t_span;
    s.active = true;
    s.span = TxSpan{};
    s.span.txId = txId;
    s.span.engine = engine;
    s.span.engineCode = engineCode;
    // Settling the clock at begin and at end makes the per-phase wall
    // deltas partition [t0, end] exactly. A transaction may begin
    // inside an enclosing PhaseScope (e.g. the SQL front end); its
    // time bills to that component, not untagged.
    s.t0 = pm::settleThreadClock();
    s.span.beginNs = s.t0;
    s.base = pm::threadTotals();
}

void
spanEnd(bool committed, const char *commitPath)
{
    ActiveSpan &s = t_span;
    if (!s.active)
        return;
    s.active = false;
    std::uint64_t now = pm::settleThreadClock();
    pm::ThreadTotals end = pm::threadTotals();
    for (std::size_t i = 0; i < pm::kNumComponents; ++i)
        s.span.phaseNs[i] = end.phases[i].wallNs - s.base.phases[i].wallNs;
    pm::PmCell d = end.sum();
    d -= s.base.sum();
    s.span.wallNs = now - s.t0;
    s.span.committed = committed;
    s.span.commitPath = commitPath;
    s.span.modelNs = d.modelNs;
    s.span.flushes = static_cast<std::uint32_t>(d.flushes);
    s.span.fences = static_cast<std::uint32_t>(d.fences);
    constexpr auto kLogFlush =
        static_cast<std::size_t>(pm::Component::LogFlush);
    s.span.walAppends = static_cast<std::uint32_t>(
        end.phases[kLogFlush].scopes - s.base.phases[kLogFlush].scopes);
    s.span.pcasAttempts =
        static_cast<std::uint32_t>(end.pcasAttempts - s.base.pcasAttempts);
    s.span.pcasRetries =
        static_cast<std::uint32_t>(end.pcasRetries - s.base.pcasRetries);
    s.span.pcasHelps =
        static_cast<std::uint32_t>(end.pcasHelps - s.base.pcasHelps);
    SpanProfiler::global().recordSpan(s.span);
}

void
spanLatchWait(std::size_t slot, std::uint64_t waitNs, bool conflict)
{
    if (!enabled())
        return;
    SpanProfiler::global().recordLatchWait(slot, waitNs, conflict);
    ActiveSpan &s = t_span;
    if (!s.active)
        return;
    ++s.span.latchWaits;
    if (conflict)
        ++s.span.latchConflicts;
    s.span.latchWaitNs += waitNs;
    if (waitNs > s.span.hotLatchWaitNs) {
        s.span.hotLatchWaitNs = waitNs;
        s.span.hotLatchSlot = static_cast<std::uint32_t>(slot);
    }
}

void
spanPageAccess(std::uint64_t pageId, bool dirty)
{
    if (!enabled())
        return;
    SpanProfiler::global().recordPageAccess(pageId, dirty);
    ActiveSpan &s = t_span;
    if (!s.active)
        return;
    ++s.span.pageAccesses;
    if (dirty)
        ++s.span.pageDirty;
}

void
spanPageConflict(std::uint64_t pageId)
{
    if (!enabled())
        return;
    SpanProfiler::global().recordPageConflict(pageId);
}

void
spanSplit()
{
    if (!enabled())
        return;
    if (t_span.active)
        ++t_span.span.splits;
}

void
spanDefrag()
{
    if (!enabled())
        return;
    if (t_span.active)
        ++t_span.span.defrags;
}

// --- SpanProfiler ------------------------------------------------------

SpanProfiler::SpanProfiler()
    : id_(g_profilerIds.fetch_add(1, std::memory_order_relaxed)),
      latchAggs_(std::make_unique<LatchSlotAgg[]>(kSpanLatchSlots)),
      latchHists_(std::make_unique<Histogram[]>(kSpanLatchSlots))
{
}

SpanProfiler &
SpanProfiler::global()
{
    // Leaked so recording threads may outlive static destruction; a
    // metrics-off run never constructs it.
    static SpanProfiler *profiler = new SpanProfiler();
    return *profiler;
}

void
SpanProfiler::SpanRing::record(const TxSpan &span)
{
    std::uint64_t h = head.load(std::memory_order_relaxed);
    if (h >= slots.size())
        dropped.fetch_add(1, std::memory_order_release);
    slots[h % kSpanRingCapacity] = span;
    head.store(h + 1, std::memory_order_release);
}

SpanProfiler::SpanRing &
SpanProfiler::threadRing()
{
    struct Memo
    {
        std::uint64_t profilerId = ~std::uint64_t{0};
        SpanRing *ring = nullptr;
    };
    thread_local std::vector<Memo> memos;
    for (const Memo &m : memos) {
        if (m.profilerId == id_)
            return *m.ring;
    }
    SpanRing *ring;
    {
        MutexLock lk(&mu_);
        rings_.push_back(std::make_unique<SpanRing>());
        ring = rings_.back().get();
    }
    memos.push_back(Memo{id_, ring});
    return *ring;
}

void
SpanProfiler::recordSpan(const TxSpan &span)
{
    threadRing().record(span);

    std::size_t idx = span.engineCode < kSpanEngineSlots
                          ? span.engineCode
                          : 0;
    EngineAgg &agg = engines_[idx];
    agg.engine.store(span.engine, std::memory_order_relaxed);
    agg.spans.fetch_add(1, std::memory_order_relaxed);
    if (span.committed)
        agg.commits.fetch_add(1, std::memory_order_relaxed);
    else
        agg.aborts.fetch_add(1, std::memory_order_relaxed);
    agg.wallNs.record(span.wallNs);
    for (std::size_t i = 0; i < pm::kNumComponents; ++i) {
        if (span.phaseNs[i] != 0) {
            agg.phaseNs[i].fetch_add(span.phaseNs[i],
                                     std::memory_order_relaxed);
        }
    }
    agg.latchWaits.fetch_add(span.latchWaits,
                             std::memory_order_relaxed);
    agg.latchWaitNs.fetch_add(span.latchWaitNs,
                              std::memory_order_relaxed);
    agg.latchConflicts.fetch_add(span.latchConflicts,
                                 std::memory_order_relaxed);
    agg.pcasAttempts.fetch_add(span.pcasAttempts,
                               std::memory_order_relaxed);
    agg.pcasRetries.fetch_add(span.pcasRetries,
                              std::memory_order_relaxed);
    agg.pcasHelps.fetch_add(span.pcasHelps,
                            std::memory_order_relaxed);
    agg.flushes.fetch_add(span.flushes, std::memory_order_relaxed);
    agg.fences.fetch_add(span.fences, std::memory_order_relaxed);
    agg.modelNs.fetch_add(span.modelNs, std::memory_order_relaxed);
    agg.walAppends.fetch_add(span.walAppends,
                             std::memory_order_relaxed);
    agg.splits.fetch_add(span.splits, std::memory_order_relaxed);
    agg.defrags.fetch_add(span.defrags, std::memory_order_relaxed);
    agg.pageAccesses.fetch_add(span.pageAccesses,
                               std::memory_order_relaxed);
    agg.pageDirty.fetch_add(span.pageDirty,
                            std::memory_order_relaxed);

    considerOutlier(span);
}

void
SpanProfiler::considerOutlier(const TxSpan &span)
{
    std::size_t idx = span.engineCode < kSpanEngineSlots
                          ? span.engineCode
                          : 0;
    Reservoir &res = reservoirs_[idx];
    // floor is 0 until the reservoir fills, so early spans always pass.
    if (span.wallNs <= res.floor.load(std::memory_order_relaxed))
        return;

    auto byWall = [](const TxSpan &a, const TxSpan &b) {
        return a.wallNs < b.wallNs;
    };
    MutexLock lk(&mu_);
    if (res.entries.size() >= kOutliersPerEngine) {
        auto mn = std::min_element(res.entries.begin(),
                                   res.entries.end(), byWall);
        if (span.wallNs <= mn->wallNs)
            return;
        *mn = span;
    } else {
        res.entries.push_back(span);
    }
    if (res.entries.size() >= kOutliersPerEngine) {
        auto mn = std::min_element(res.entries.begin(),
                                   res.entries.end(), byWall);
        res.floor.store(mn->wallNs, std::memory_order_relaxed);
    }
}

void
SpanProfiler::recordLatchWait(std::size_t slot, std::uint64_t waitNs,
                              bool conflict)
{
    if (slot >= kSpanLatchSlots)
        slot = kSpanLatchSlots - 1;
    LatchSlotAgg &agg = latchAggs_[slot];
    agg.waits.fetch_add(1, std::memory_order_relaxed);
    if (conflict)
        agg.conflicts.fetch_add(1, std::memory_order_relaxed);
    agg.waitNs.fetch_add(waitNs, std::memory_order_relaxed);
    latchHists_[slot].record(waitNs);
}

SpanProfiler::HeatCell *
SpanProfiler::findHeatCell(std::uint64_t pageId)
{
    std::uint64_t key = pageId + 1; // 0 marks an empty cell
    std::uint64_t h = (key * 0x9e3779b97f4a7c15ull) >> 32;
    for (std::size_t p = 0; p < kHeatProbes; ++p) {
        HeatCell &cell = heat_[(h + p) % kPageHeatSlots];
        std::uint64_t k = cell.key.load(std::memory_order_relaxed);
        if (k == key)
            return &cell;
        if (k == 0) {
            if (cell.key.compare_exchange_strong(
                    k, key, std::memory_order_acq_rel,
                    std::memory_order_relaxed)) {
                return &cell;
            }
            if (k == key) // lost the claim to ourselves-by-proxy
                return &cell;
        }
    }
    return nullptr;
}

void
SpanProfiler::maybeDecayHeat()
{
    std::uint64_t t =
        heatTicks_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (t % kHeatDecayPeriod != 0)
        return;
    heatDecays_.fetch_add(1, std::memory_order_relaxed);
    // Halve every cell; cells decayed to zero are freed for new pages.
    // Racing bumps may be lost — tolerable, it is a sketch, and the
    // loss is bounded by one period's worth of counts per cell.
    for (HeatCell &cell : heat_) {
        if (cell.key.load(std::memory_order_relaxed) == 0)
            continue;
        std::uint64_t a =
            cell.accesses.load(std::memory_order_relaxed) >> 1;
        cell.accesses.store(a, std::memory_order_relaxed);
        cell.dirty.store(
            cell.dirty.load(std::memory_order_relaxed) >> 1,
            std::memory_order_relaxed);
        cell.conflicts.store(
            cell.conflicts.load(std::memory_order_relaxed) >> 1,
            std::memory_order_relaxed);
        if (a == 0)
            cell.key.store(0, std::memory_order_relaxed);
    }
}

void
SpanProfiler::recordPageAccess(std::uint64_t pageId, bool dirty)
{
    if (HeatCell *cell = findHeatCell(pageId)) {
        cell->accesses.fetch_add(1, std::memory_order_relaxed);
        if (dirty)
            cell->dirty.fetch_add(1, std::memory_order_relaxed);
    } else {
        heatOverflow_.fetch_add(1, std::memory_order_relaxed);
    }
    maybeDecayHeat();
}

void
SpanProfiler::recordPageConflict(std::uint64_t pageId)
{
    if (HeatCell *cell = findHeatCell(pageId))
        cell->conflicts.fetch_add(1, std::memory_order_relaxed);
    else
        heatOverflow_.fetch_add(1, std::memory_order_relaxed);
}

// --- Snapshots ---------------------------------------------------------

std::vector<EngineSpanSummary>
SpanProfiler::engineSummaries() const
{
    std::vector<EngineSpanSummary> out;
    for (const EngineAgg &agg : engines_) {
        std::uint64_t n = agg.spans.load(std::memory_order_relaxed);
        if (n == 0)
            continue;
        EngineSpanSummary s;
        s.engine = agg.engine.load(std::memory_order_relaxed);
        s.spans = n;
        s.commits = agg.commits.load(std::memory_order_relaxed);
        s.aborts = agg.aborts.load(std::memory_order_relaxed);
        s.wallNs = snapshotHistogram(agg.wallNs);
        for (std::size_t i = 0; i < pm::kNumComponents; ++i) {
            s.phaseNs[i] =
                agg.phaseNs[i].load(std::memory_order_relaxed);
        }
        s.latchWaits =
            agg.latchWaits.load(std::memory_order_relaxed);
        s.latchWaitNs =
            agg.latchWaitNs.load(std::memory_order_relaxed);
        s.latchConflicts =
            agg.latchConflicts.load(std::memory_order_relaxed);
        s.pcasAttempts =
            agg.pcasAttempts.load(std::memory_order_relaxed);
        s.pcasRetries =
            agg.pcasRetries.load(std::memory_order_relaxed);
        s.pcasHelps = agg.pcasHelps.load(std::memory_order_relaxed);
        s.flushes = agg.flushes.load(std::memory_order_relaxed);
        s.fences = agg.fences.load(std::memory_order_relaxed);
        s.modelNs = agg.modelNs.load(std::memory_order_relaxed);
        s.walAppends =
            agg.walAppends.load(std::memory_order_relaxed);
        s.splits = agg.splits.load(std::memory_order_relaxed);
        s.defrags = agg.defrags.load(std::memory_order_relaxed);
        s.pageAccesses =
            agg.pageAccesses.load(std::memory_order_relaxed);
        s.pageDirty = agg.pageDirty.load(std::memory_order_relaxed);
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<LatchSlotSummary>
SpanProfiler::latchContention(std::size_t maxSlots) const
{
    std::vector<LatchSlotSummary> out;
    for (std::size_t slot = 0; slot < kSpanLatchSlots; ++slot) {
        const LatchSlotAgg &agg = latchAggs_[slot];
        std::uint64_t waits =
            agg.waits.load(std::memory_order_relaxed);
        if (waits == 0)
            continue;
        LatchSlotSummary s;
        s.slot = slot;
        s.waits = waits;
        s.conflicts = agg.conflicts.load(std::memory_order_relaxed);
        s.waitNs = agg.waitNs.load(std::memory_order_relaxed);
        s.hist = snapshotHistogram(latchHists_[slot]);
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const LatchSlotSummary &a, const LatchSlotSummary &b) {
                  if (a.waitNs != b.waitNs)
                      return a.waitNs > b.waitNs;
                  return a.slot < b.slot;
              });
    if (out.size() > maxSlots)
        out.resize(maxSlots);
    return out;
}

std::uint64_t
SpanProfiler::totalLatchWaits() const
{
    std::uint64_t n = 0;
    for (std::size_t slot = 0; slot < kSpanLatchSlots; ++slot)
        n += latchAggs_[slot].waits.load(std::memory_order_relaxed);
    return n;
}

std::uint64_t
SpanProfiler::totalLatchConflicts() const
{
    std::uint64_t n = 0;
    for (std::size_t slot = 0; slot < kSpanLatchSlots; ++slot) {
        n += latchAggs_[slot].conflicts.load(
            std::memory_order_relaxed);
    }
    return n;
}

std::uint64_t
SpanProfiler::contendedSlotCount() const
{
    std::uint64_t n = 0;
    for (std::size_t slot = 0; slot < kSpanLatchSlots; ++slot) {
        if (latchAggs_[slot].waits.load(std::memory_order_relaxed) >
            0) {
            ++n;
        }
    }
    return n;
}

HistogramSnapshot
SpanProfiler::latchWaitHist() const
{
    Histogram merged;
    for (std::size_t slot = 0; slot < kSpanLatchSlots; ++slot)
        merged.merge(latchHists_[slot]);
    return snapshotHistogram(merged);
}

void
SpanProfiler::resetLatchContention()
{
    for (std::size_t slot = 0; slot < kSpanLatchSlots; ++slot) {
        latchAggs_[slot].waits.store(0, std::memory_order_relaxed);
        latchAggs_[slot].conflicts.store(0,
                                         std::memory_order_relaxed);
        latchAggs_[slot].waitNs.store(0, std::memory_order_relaxed);
        latchHists_[slot].reset();
    }
}

PageHeatSnapshot
SpanProfiler::pageHeat(std::size_t k) const
{
    PageHeatSnapshot out;
    for (const HeatCell &cell : heat_) {
        std::uint64_t key = cell.key.load(std::memory_order_relaxed);
        if (key == 0)
            continue;
        PageHeatEntry e;
        e.page = key - 1;
        e.accesses = cell.accesses.load(std::memory_order_relaxed);
        e.dirty = cell.dirty.load(std::memory_order_relaxed);
        e.conflicts = cell.conflicts.load(std::memory_order_relaxed);
        out.top.push_back(e);
    }
    out.tracked = out.top.size();
    std::sort(out.top.begin(), out.top.end(),
              [](const PageHeatEntry &a, const PageHeatEntry &b) {
                  if (a.accesses != b.accesses)
                      return a.accesses > b.accesses;
                  return a.page < b.page;
              });
    if (out.top.size() > k)
        out.top.resize(k);
    out.overflow = heatOverflow_.load(std::memory_order_relaxed);
    out.decays = heatDecays_.load(std::memory_order_relaxed);
    return out;
}

std::vector<TxSpan>
SpanProfiler::outliers() const
{
    std::vector<TxSpan> out;
    MutexLock lk(&mu_);
    for (const Reservoir &res : reservoirs_) {
        std::size_t first = out.size();
        out.insert(out.end(), res.entries.begin(), res.entries.end());
        std::sort(out.begin() + static_cast<std::ptrdiff_t>(first),
                  out.end(), [](const TxSpan &a, const TxSpan &b) {
                      return a.wallNs > b.wallNs;
                  });
    }
    return out;
}

std::uint64_t
SpanProfiler::spansRecorded() const
{
    MutexLock lk(&mu_);
    std::uint64_t n = 0;
    for (const auto &ring : rings_)
        n += ring->head.load(std::memory_order_acquire);
    return n;
}

std::vector<SpanRingStats>
SpanProfiler::ringStats() const
{
    MutexLock lk(&mu_);
    std::vector<SpanRingStats> out;
    out.reserve(rings_.size());
    for (std::size_t i = 0; i < rings_.size(); ++i) {
        const SpanRing &ring = *rings_[i];
        SpanRingStats stats;
        stats.ring = i;
        stats.capacity = kSpanRingCapacity;
        stats.recorded = ring.head.load(std::memory_order_acquire);
        stats.dropped =
            ring.dropped.load(std::memory_order_acquire);
        out.push_back(stats);
    }
    return out;
}

std::vector<RingSpan>
SpanProfiler::retainedSpans() const
{
    std::vector<RingSpan> out;
    MutexLock lk(&mu_);
    for (std::size_t r = 0; r < rings_.size(); ++r) {
        const SpanRing &ring = *rings_[r];
        std::uint64_t head = ring.head.load(std::memory_order_acquire);
        std::uint64_t retained =
            std::min<std::uint64_t>(head, kSpanRingCapacity);
        for (std::uint64_t i = head - retained; i < head; ++i)
            out.push_back(RingSpan{r, ring.slots[i % kSpanRingCapacity]});
    }
    return out;
}

void
SpanProfiler::reset()
{
    MutexLock lk(&mu_);
    for (auto &ring : rings_) {
        ring->head.store(0, std::memory_order_relaxed);
        ring->dropped.store(0, std::memory_order_relaxed);
    }
    for (EngineAgg &agg : engines_) {
        agg.engine.store(nullptr, std::memory_order_relaxed);
        agg.spans.store(0, std::memory_order_relaxed);
        agg.commits.store(0, std::memory_order_relaxed);
        agg.aborts.store(0, std::memory_order_relaxed);
        agg.wallNs.reset();
        for (auto &p : agg.phaseNs)
            p.store(0, std::memory_order_relaxed);
        agg.latchWaits.store(0, std::memory_order_relaxed);
        agg.latchWaitNs.store(0, std::memory_order_relaxed);
        agg.latchConflicts.store(0, std::memory_order_relaxed);
        agg.pcasAttempts.store(0, std::memory_order_relaxed);
        agg.pcasRetries.store(0, std::memory_order_relaxed);
        agg.pcasHelps.store(0, std::memory_order_relaxed);
        agg.flushes.store(0, std::memory_order_relaxed);
        agg.fences.store(0, std::memory_order_relaxed);
        agg.modelNs.store(0, std::memory_order_relaxed);
        agg.walAppends.store(0, std::memory_order_relaxed);
        agg.splits.store(0, std::memory_order_relaxed);
        agg.defrags.store(0, std::memory_order_relaxed);
        agg.pageAccesses.store(0, std::memory_order_relaxed);
        agg.pageDirty.store(0, std::memory_order_relaxed);
    }
    for (std::size_t slot = 0; slot < kSpanLatchSlots; ++slot) {
        latchAggs_[slot].waits.store(0, std::memory_order_relaxed);
        latchAggs_[slot].conflicts.store(0,
                                         std::memory_order_relaxed);
        latchAggs_[slot].waitNs.store(0, std::memory_order_relaxed);
        latchHists_[slot].reset();
    }
    for (HeatCell &cell : heat_) {
        cell.key.store(0, std::memory_order_relaxed);
        cell.accesses.store(0, std::memory_order_relaxed);
        cell.dirty.store(0, std::memory_order_relaxed);
        cell.conflicts.store(0, std::memory_order_relaxed);
    }
    heatTicks_.store(0, std::memory_order_relaxed);
    heatOverflow_.store(0, std::memory_order_relaxed);
    heatDecays_.store(0, std::memory_order_relaxed);
    for (Reservoir &res : reservoirs_) {
        res.entries.clear();
        res.floor.store(0, std::memory_order_relaxed);
    }
}

} // namespace fasp::obs
