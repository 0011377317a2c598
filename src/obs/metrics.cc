// fasp-analyze: allow-file(raw-std-sync) -- lock-free histograms:
// monotonic counts only, never synchronization of engine state.
#include "obs/metrics.h"

#include <algorithm>
#include <bit>

namespace fasp::obs {

namespace {

std::atomic<bool> g_enabled{false};

} // namespace

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    if (g_enabled.exchange(on, std::memory_order_relaxed) != on)
        pm::holdPhaseClock(on);
}

// --- Histogram ---------------------------------------------------------

std::size_t
Histogram::bucketIndex(std::uint64_t v)
{
    if (v == 0)
        return 0;
    return std::min<std::size_t>(std::bit_width(v), kBuckets - 1);
}

std::uint64_t
Histogram::bucketUpperEdge(std::size_t i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
}

void
Histogram::record(std::uint64_t v)
{
    buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < v &&
           !max_.compare_exchange_weak(prev, v,
                                       std::memory_order_relaxed)) {
    }
}

std::uint64_t
Histogram::quantile(double q) const
{
    std::uint64_t total = count();
    if (total == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested quantile, 1-based.
    auto rank = static_cast<std::uint64_t>(q * double(total - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += bucketCount(i);
        if (seen >= rank) {
            if (i == kBuckets - 1)
                return max();
            return bucketUpperEdge(i);
        }
    }
    return max();
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot
snapshotHistogram(const Histogram &h)
{
    HistogramSnapshot snap;
    snap.count = h.count();
    snap.sum = h.sum();
    snap.max = h.max();
    snap.p50 = h.p50();
    snap.p95 = h.p95();
    snap.p99 = h.p99();
    return snap;
}

// --- PhaseLedger -------------------------------------------------------

PhaseLedger &
PhaseLedger::global()
{
    static PhaseLedger ledger;
    return ledger;
}

void
PhaseLedger::fold(std::string_view engine, const pm::PhaseTracker &window,
                  std::span<const NamedCount> counters)
{
    MutexLock lk(&mu_);
    Entry *entry = nullptr;
    for (auto &e : entries_) {
        if (e.engine == engine) {
            entry = &e;
            break;
        }
    }
    if (entry == nullptr) {
        entries_.emplace_back();
        entry = &entries_.back();
        entry->engine = std::string(engine);
    }
    for (std::size_t i = 0; i < pm::kNumComponents; ++i) {
        entry->phases[i] +=
            window.phase(static_cast<pm::Component>(i));
    }
    for (const auto &[site, cell] : window.sites()) {
        auto it = std::find_if(
            entry->sites.begin(), entry->sites.end(),
            [&](const auto &p) { return p.first == site; });
        if (it == entry->sites.end())
            entry->sites.emplace_back(site, cell);
        else
            it->second += cell;
    }
    for (const NamedCount &c : counters) {
        if (c.value != 0)
            entry->counters[c.name] += c.value;
    }
}

std::vector<PhaseLedger::Entry>
PhaseLedger::entries() const
{
    MutexLock lk(&mu_);
    return entries_;
}

void
PhaseLedger::reset()
{
    MutexLock lk(&mu_);
    entries_.clear();
}

// --- RecoveryLedger ----------------------------------------------------

const char *
recoveryPhaseName(RecoveryPhase phase)
{
    switch (phase) {
      case RecoveryPhase::Scan: return "scan";
      case RecoveryPhase::Replay: return "replay";
      case RecoveryPhase::Discard: return "discard";
      case RecoveryPhase::TornRepair: return "torn-repair";
    }
    return "?";
}

RecoveryLedger &
RecoveryLedger::global()
{
    static RecoveryLedger ledger;
    return ledger;
}

void
RecoveryLedger::record(std::string_view engine,
                       const RecoveryBreakdown &pass)
{
    MutexLock lk(&mu_);
    Entry *entry = nullptr;
    for (auto &e : entries_) {
        if (e->engine == engine) {
            entry = e.get();
            break;
        }
    }
    if (entry == nullptr) {
        entries_.push_back(std::make_unique<Entry>());
        entry = entries_.back().get();
        entry->engine = std::string(engine);
    }
    entry->recoveries++;
    entry->pagesScanned += pass.pagesScanned;
    entry->recordsReplayed += pass.recordsReplayed;
    entry->recordsDiscarded += pass.recordsDiscarded;
    entry->tornRecords += pass.tornRecords;
    // Indexed by RecoveryPhase.
    const std::uint64_t phase_ns[kNumRecoveryPhases] = {
        pass.scanNs, pass.replayNs, pass.discardNs, pass.repairNs};
    for (std::size_t i = 0; i < kNumRecoveryPhases; ++i)
        entry->phaseNs[i].record(phase_ns[i]);
}

std::vector<RecoveryLedger::EntrySnapshot>
RecoveryLedger::entries() const
{
    MutexLock lk(&mu_);
    std::vector<EntrySnapshot> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_) {
        EntrySnapshot snap;
        snap.engine = e->engine;
        snap.recoveries = e->recoveries;
        snap.pagesScanned = e->pagesScanned;
        snap.recordsReplayed = e->recordsReplayed;
        snap.recordsDiscarded = e->recordsDiscarded;
        snap.tornRecords = e->tornRecords;
        for (std::size_t i = 0; i < kNumRecoveryPhases; ++i)
            snap.phases[i] = snapshotHistogram(e->phaseNs[i]);
        out.push_back(std::move(snap));
    }
    return out;
}

void
RecoveryLedger::reset()
{
    MutexLock lk(&mu_);
    entries_.clear();
}

} // namespace fasp::obs
