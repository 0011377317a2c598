// fasp-analyze: allow-file(raw-std-sync) -- lock-free metrics registry:
// monotonic counters only, never synchronization of engine state.
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
Histogram::merge(const Histogram &other)
{
    for (std::size_t i = 0; i < kBuckets; ++i) {
        std::uint64_t n = other.bucketCount(i);
        if (n)
            buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
    std::uint64_t omax = other.max();
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < omax &&
           !max_.compare_exchange_weak(prev, omax,
                                       std::memory_order_relaxed)) {
    }
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

// --- MetricsRegistry ---------------------------------------------------

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    MutexLock lk(&mu_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string(name),
                               std::make_unique<Counter>()).first;
    }
    return *it->second;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    MutexLock lk(&mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_.emplace(std::string(name),
                             std::make_unique<Gauge>()).first;
    }
    return *it->second;
}

Histogram &
MetricsRegistry::histogram(std::string_view name)
{
    MutexLock lk(&mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(std::string(name),
                                 std::make_unique<Histogram>()).first;
    }
    return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counters() const
{
    MutexLock lk(&mu_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        out.emplace_back(name, c->value());
    return out;
}

std::vector<std::pair<std::string, std::int64_t>>
MetricsRegistry::gauges() const
{
    MutexLock lk(&mu_);
    std::vector<std::pair<std::string, std::int64_t>> out;
    out.reserve(gauges_.size());
    for (const auto &[name, g] : gauges_)
        out.emplace_back(name, g->value());
    return out;
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
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        std::uint64_t n = h.bucketCount(i);
        std::uint64_t edge = (i == Histogram::kBuckets - 1)
            ? snap.max : Histogram::bucketUpperEdge(i);
        if (n)
            snap.buckets.emplace_back(edge, n);
    }
    return snap;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::histograms() const
{
    MutexLock lk(&mu_);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(histograms_.size());
    for (const auto &[name, h] : histograms_)
        out.emplace_back(name, snapshotHistogram(*h));
    return out;
}

void
MetricsRegistry::reset()
{
    MutexLock lk(&mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

// --- PhaseLedger -------------------------------------------------------

PhaseLedger &
PhaseLedger::global()
{
    static PhaseLedger ledger;
    return ledger;
}

void
PhaseLedger::fold(std::string_view engine, const pm::PhaseTracker &window)
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
RecoveryLedger::record(std::string_view engine, const Sample &sample)
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
    entry->pagesScanned += sample.pagesScanned;
    entry->recordsReplayed += sample.recordsReplayed;
    entry->recordsDiscarded += sample.recordsDiscarded;
    entry->tornRecords += sample.tornRecords;
    for (std::size_t i = 0; i < kNumRecoveryPhases; ++i)
        entry->phaseNs[i].record(sample.phaseNs[i]);
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
