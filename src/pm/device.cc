#include "pm/device.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/rng.h"
#include "pm/checker.h"

namespace fasp::pm {

namespace {

/** Round up to the next power of two (minimum 1). */
std::size_t
roundUpPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

PmDevice::PmDevice(const PmConfig &config)
    : config_(config),
      durable_(config.size, 0),
      crashRng_(std::make_unique<Rng>(config.crashSeed))
{
    FASP_ASSERT(config.size % kCacheLineSize == 0);
    std::size_t lines = roundUpPow2(std::max<std::size_t>(
        config.tagCacheLines, 64));
    tags_ = std::vector<std::atomic<PmOffset>>(lines);
    tagMask_ = lines - 1;
}

PmDevice::~PmDevice() = default;

void
PmDevice::checkRange(PmOffset off, std::size_t len) const
{
    if (off + len > durable_.size() || off + len < off) {
        faspPanic("PM access out of range: off=%llu len=%zu size=%zu",
                  static_cast<unsigned long long>(off), len,
                  durable_.size());
    }
}

void
PmDevice::checkAlive() const
{
    if (crashed())
        faspPanic("access to crashed PM device before recovery");
}

std::uint64_t
PmDevice::raiseEvent(PmEvent event)
{
    // Only an attached injector, dropper or checker reads the index.
    // Without one, skip the shared RMW: the counter stands still, so a
    // base read before attaching one stays valid (see eventCount()).
    CrashInjector *injector = injector_.load(std::memory_order_acquire);
    if (!injector && !checker() &&
        !flushDropper_.load(std::memory_order_acquire))
        return 0;
    std::uint64_t index =
        eventCount_.fetch_add(1, std::memory_order_acq_rel);
    if (injector && injector->shouldCrash(event, index)) {
        crash();
        throw CrashException(index);
    }
    return index;
}

void
PmDevice::write(PmOffset off, const void *src, std::size_t len)
{
    writeImpl(off, src, len, /*scratch=*/false);
}

void
PmDevice::writeScratch(PmOffset off, const void *src, std::size_t len)
{
    writeImpl(off, src, len, /*scratch=*/true);
}

void
PmDevice::writeImpl(PmOffset off, const void *src, std::size_t len,
                    bool scratch)
{
    checkAlive();
    checkRange(off, len);
    if (len == 0)
        return;
    if (mc::SchedulerHook *h = mc::activeHook())
        h->atPoint(mc::HookOp::PmStore, durable_.data() + off, len);
    // Shard mutexes / checker internals below are implementation
    // detail, not scheduling points.
    mc::HookDepthGuard hook_depth;
    std::uint64_t index = raiseEvent(PmEvent::Store);
    stats_.add(kStores);
    stats_.add(kStoreBytes, len);

    const auto *bytes = static_cast<const std::uint8_t *>(src);
    if (config_.mode == PmMode::Direct) {
        std::memcpy(durable_.data() + off, bytes, len);
    } else {
        // Scatter the store across the dirty lines it touches.
        PmOffset cur = off;
        std::size_t remaining = len;
        while (remaining > 0) {
            PmOffset base = cacheLineBase(cur);
            std::size_t in_line = std::min<std::size_t>(
                remaining, base + kCacheLineSize - cur);
            CacheShard &shard = shardFor(base);
            {
                MutexLock lk(&shard.mu);
                auto it = shard.lines.find(base);
                if (it == shard.lines.end()) {
                    LineBuf buf;
                    std::memcpy(buf.data(), durable_.data() + base,
                                kCacheLineSize);
                    it = shard.lines.emplace(base, buf).first;
                    dirtyLines_.fetch_add(1, std::memory_order_release);
                }
                std::memcpy(it->second.data() + (cur - base), bytes,
                            in_line);
            }
            bytes += in_line;
            cur += in_line;
            remaining -= in_line;
        }
    }

    // Write-allocate into the simulated read cache (no charge: the CPU
    // cache hides store latency, per the paper's emulation rule).
    for (PmOffset base = cacheLineBase(off);
         base < off + len; base += kCacheLineSize) {
        tags_[(base / kCacheLineSize) & tagMask_].store(
            base + 1, std::memory_order_relaxed);
    }

    if (PersistencyChecker *chk = checker())
        chk->onStore(off, len, scratch, index, threadSite());
    if (!scratch)
        billStore(len);
}

bool
PmDevice::casU64(PmOffset off, std::uint64_t &expected,
                 std::uint64_t desired)
{
    checkAlive();
    checkRange(off, 8);
    FASP_ASSERT(off % 8 == 0);
    if (mc::SchedulerHook *h = mc::activeHook())
        h->atPoint(mc::HookOp::PmCas, durable_.data() + off, 8);
    mc::HookDepthGuard hook_depth;
    std::uint64_t index = raiseEvent(PmEvent::Store);

    bool ok;
    if (config_.mode == PmMode::Direct) {
        // The durable image is line-aligned, so an 8-aligned offset
        // lands on a naturally aligned word.
        std::atomic_ref<std::uint64_t> word(*reinterpret_cast<
            std::uint64_t *>(durable_.data() + off));
        ok = word.compare_exchange_strong(expected, desired,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
    } else {
        // CacheSim: the shard mutex serializes every access to the
        // line, so compare + conditional store is atomic under it.
        PmOffset base = cacheLineBase(off);
        CacheShard &shard = shardFor(base);
        MutexLock lk(&shard.mu);
        auto it = shard.lines.find(base);
        std::uint64_t cur;
        const std::uint8_t *src = (it != shard.lines.end())
            ? it->second.data() + (off - base)
            : durable_.data() + off;
        std::memcpy(&cur, src, 8);
        if (cur == expected) {
            if (it == shard.lines.end()) {
                LineBuf buf;
                std::memcpy(buf.data(), durable_.data() + base,
                            kCacheLineSize);
                it = shard.lines.emplace(base, buf).first;
                dirtyLines_.fetch_add(1, std::memory_order_release);
            }
            std::memcpy(it->second.data() + (off - base), &desired, 8);
            ok = true;
        } else {
            expected = cur;
            ok = false;
        }
    }

    if (ok) {
        stats_.add(kStores);
        stats_.add(kStoreBytes, 8);
        tags_[(cacheLineBase(off) / kCacheLineSize) & tagMask_].store(
            cacheLineBase(off) + 1, std::memory_order_relaxed);
        if (PersistencyChecker *chk = checker())
            chk->onCasStore(off, index, threadSite());
        billStore(8);
    } else {
        stats_.add(kLoads);
        stats_.add(kLoadBytes, 8);
    }
    return ok;
}

std::uint64_t
PmDevice::loadU64Atomic(PmOffset off)
{
    checkAlive();
    checkRange(off, 8);
    FASP_ASSERT(off % 8 == 0);
    mc::HookDepthGuard hook_depth;
    stats_.add(kLoads);
    stats_.add(kLoadBytes, 8);
    chargeReadLatency(off, 8);

    if (config_.mode == PmMode::Direct) {
        std::atomic_ref<const std::uint64_t> word(*reinterpret_cast<
            const std::uint64_t *>(durable_.data() + off));
        return word.load(std::memory_order_acquire);
    }
    PmOffset base = cacheLineBase(off);
    CacheShard &shard = shardFor(base);
    MutexLock lk(&shard.mu);
    auto it = shard.lines.find(base);
    const std::uint8_t *src = (it != shard.lines.end())
        ? it->second.data() + (off - base)
        : durable_.data() + off;
    std::uint64_t v;
    std::memcpy(&v, src, 8);
    return v;
}

void
PmDevice::read(PmOffset off, void *dst, std::size_t len)
{
    checkAlive();
    checkRange(off, len);
    if (len == 0)
        return;
    // Reads are not scheduling points (see DESIGN.md §13: racy logic
    // must either hold a latch, which is a point, or mark the gap with
    // mc::yieldPoint()), but the shard locks below must stay invisible.
    mc::HookDepthGuard hook_depth;
    stats_.add(kLoads);
    stats_.add(kLoadBytes, len);
    chargeReadLatency(off, len);
    // V6: a plain read must not consume a PCAS dirty-tagged word (one
    // relaxed load inside onRead when no word is tagged).
    if (PersistencyChecker *chk = checker())
        chk->onRead(off, len, eventCount(), threadSite());

    auto *out = static_cast<std::uint8_t *>(dst);
    if (config_.mode == PmMode::Direct || dirtyLineCount() == 0) {
        std::memcpy(out, durable_.data() + off, len);
        return;
    }
    // Gather: dirty lines override the durable image.
    PmOffset cur = off;
    std::size_t remaining = len;
    while (remaining > 0) {
        PmOffset base = cacheLineBase(cur);
        std::size_t in_line = std::min<std::size_t>(
            remaining, base + kCacheLineSize - cur);
        CacheShard &shard = shardFor(base);
        {
            MutexLock lk(&shard.mu);
            auto it = shard.lines.find(base);
            const std::uint8_t *src = (it != shard.lines.end())
                ? it->second.data() + (cur - base)
                : durable_.data() + cur;
            std::memcpy(out, src, in_line);
        }
        out += in_line;
        cur += in_line;
        remaining -= in_line;
    }
}

const PmStats
PmDevice::stats() const
{
    const auto n = stats_.sum();
    return {.stores = n[kStores],
            .storeBytes = n[kStoreBytes],
            .loads = n[kLoads],
            .loadBytes = n[kLoadBytes],
            .clflushes = n[kClflushes],
            .fences = n[kFences],
            .readMisses = n[kReadMisses],
            .modelNs = n[kModelNs]};
}

void
PmDevice::readDurable(PmOffset off, void *dst, std::size_t len) const
{
    checkRange(off, len);
    std::memcpy(dst, durable_.data() + off, len);
}

void
PmDevice::memset(PmOffset off, std::uint8_t byte, std::size_t len)
{
    checkAlive();
    checkRange(off, len);
    std::array<std::uint8_t, 256> chunk;
    chunk.fill(byte);
    while (len > 0) {
        std::size_t n = std::min(len, chunk.size());
        write(off, chunk.data(), n);
        off += n;
        len -= n;
    }
}

void
PmDevice::chargeReadLatency(PmOffset off, std::size_t len)
{
    std::uint64_t penalty = config_.latency.readPenaltyNs();
    for (PmOffset base = cacheLineBase(off);
         base < off + len; base += kCacheLineSize) {
        std::size_t idx = (base / kCacheLineSize) & tagMask_;
        if (tags_[idx].load(std::memory_order_relaxed) != base + 1) {
            tags_[idx].store(base + 1, std::memory_order_relaxed);
            stats_.add(kReadMisses);
            stats_.add(kModelNs, penalty);
            billReadMiss(penalty);
        }
    }
}

void
PmDevice::clflush(PmOffset off)
{
    checkAlive();
    checkRange(off, 1);
    if (mc::SchedulerHook *h = mc::activeHook())
        h->atPoint(mc::HookOp::PmFlush,
                   durable_.data() + cacheLineBase(off),
                   kCacheLineSize);
    mc::HookDepthGuard hook_depth;
    std::uint64_t index = raiseEvent(PmEvent::Flush);
    PmOffset base = cacheLineBase(off);

    if (config_.mode == PmMode::CacheSim) {
        // Fault injection: a dropped flush discards the dirty line
        // instead of writing it back, while every downstream effect
        // (stats, checker, ledger) still sees a successful flush.
        FlushDropper *dropper =
            flushDropper_.load(std::memory_order_acquire);
        bool drop = dropper && dropper->shouldDrop(base, index);
        CacheShard &shard = shardFor(base);
        MutexLock lk(&shard.mu);
        auto it = shard.lines.find(base);
        if (it != shard.lines.end()) {
            if (!drop)
                std::memcpy(durable_.data() + base, it->second.data(),
                            kCacheLineSize);
            shard.lines.erase(it);
            dirtyLines_.fetch_sub(1, std::memory_order_release);
        }
    }
    // CLFLUSH evicts the line (the next read misses); CLWB writes it
    // back but keeps it cached.
    if (!config_.useClwb) {
        tags_[(base / kCacheLineSize) & tagMask_].store(
            0, std::memory_order_relaxed);
    }

    stats_.add(kClflushes);
    stats_.add(kModelNs, config_.latency.pmWriteNs);
    billFlush(config_.latency.pmWriteNs);
    if (PersistencyChecker *chk = checker())
        chk->onFlush(base, index, threadSite());
}

void
PmDevice::flushRange(PmOffset off, std::size_t len)
{
    if (len == 0)
        return;
    for (PmOffset base = cacheLineBase(off);
         base < off + len; base += kCacheLineSize) {
        clflush(base);
    }
}

void
PmDevice::sfence()
{
    checkAlive();
    // The fence is where the model checker forks crash images, so its
    // atPoint carries the whole-device resource (durable_.data()).
    if (mc::SchedulerHook *h = mc::activeHook())
        h->atPoint(mc::HookOp::PmFence, durable_.data(), 1);
    mc::HookDepthGuard hook_depth;
    std::uint64_t index = raiseEvent(PmEvent::Fence);
    stats_.add(kFences);
    stats_.add(kModelNs, config_.latency.fenceNs);
    billFence(config_.latency.fenceNs);
    if (PersistencyChecker *chk = checker())
        chk->onFence(index, threadSite());
}

void
PmDevice::markScratch(PmOffset off, std::size_t len)
{
    mc::HookDepthGuard hook_depth; // checker internals, not a point
    if (PersistencyChecker *chk = checker())
        chk->onMarkScratch(off, len);
}

void
PmDevice::txBegin()
{
    mc::HookDepthGuard hook_depth; // checker internals, not a point
    if (PersistencyChecker *chk = checker())
        chk->onTxBegin();
}

void
PmDevice::txCommitPoint()
{
    mc::HookDepthGuard hook_depth; // checker internals, not a point
    if (PersistencyChecker *chk = checker())
        chk->onTxCommitPoint(eventCount(), threadSite());
}

void
PmDevice::txEnd(bool committed)
{
    mc::HookDepthGuard hook_depth; // checker internals, not a point
    if (PersistencyChecker *chk = checker())
        chk->onTxEnd(committed, eventCount(), threadSite());
}

void
PmDevice::crash()
{
    FASP_ASSERT(config_.mode == PmMode::CacheSim);
    for (CacheShard &shard : cacheShards_) {
        MutexLock lk(&shard.mu);
        switch (config_.crashPolicy) {
          case CrashPolicy::DropAll:
            break;
          case CrashPolicy::RandomLines:
            // The cache may have evicted any dirty line to PM before
            // power was lost: persist an arbitrary subset, whole lines
            // at a time.
            for (const auto &[base, line] : shard.lines) {
                if (crashRng_->nextBool(0.5)) {
                    std::memcpy(durable_.data() + base, line.data(),
                                kCacheLineSize);
                }
            }
            break;
          case CrashPolicy::TornLines:
            // Only 8-byte units are atomic: each aligned word of each
            // dirty line independently reaches PM or not.
            for (const auto &[base, line] : shard.lines) {
                for (std::size_t w = 0; w < kCacheLineSize; w += 8) {
                    if (crashRng_->nextBool(0.5)) {
                        std::memcpy(durable_.data() + base + w,
                                    line.data() + w, 8);
                    }
                }
            }
            break;
        }
        shard.lines.clear();
    }
    dirtyLines_.store(0, std::memory_order_release);
    crashed_.store(true, std::memory_order_release);
    if (PersistencyChecker *chk = checker())
        chk->onCrash();
}

void
PmDevice::reviveAfterCrash()
{
    for (CacheShard &shard : cacheShards_) {
        MutexLock lk(&shard.mu);
        shard.lines.clear();
    }
    dirtyLines_.store(0, std::memory_order_release);
    crashed_.store(false, std::memory_order_release);
    invalidateTagCache();
}

void
PmDevice::invalidateTagCache()
{
    for (auto &tag : tags_)
        tag.store(0, std::memory_order_relaxed);
}

void
PmDevice::composeCrashImage(CrashPolicy policy, std::uint64_t seed,
                            std::vector<std::uint8_t> &out)
{
    FASP_ASSERT(config_.mode == PmMode::CacheSim);
    mc::HookDepthGuard hook_depth; // shard locks, not points
    out.assign(durable_.begin(), durable_.end());
    Rng rng(seed);
    // Shards are visited in index order and lines within a shard in
    // map order; with the fixed seed that makes the image a pure
    // function of (device state, policy, seed)... except that the
    // unordered_map iteration order could differ across library
    // implementations. Sort the lines so it cannot.
    for (CacheShard &shard : cacheShards_) {
        MutexLock lk(&shard.mu);
        std::vector<PmOffset> bases;
        bases.reserve(shard.lines.size());
        for (const auto &[base, line] : shard.lines)
            bases.push_back(base);
        std::sort(bases.begin(), bases.end());
        for (PmOffset base : bases) {
            const LineBuf &line = shard.lines.at(base);
            switch (policy) {
              case CrashPolicy::DropAll:
                break;
              case CrashPolicy::RandomLines:
                if (rng.nextBool(0.5)) {
                    std::memcpy(out.data() + base, line.data(),
                                kCacheLineSize);
                }
                break;
              case CrashPolicy::TornLines:
                for (std::size_t w = 0; w < kCacheLineSize; w += 8) {
                    if (rng.nextBool(0.5)) {
                        std::memcpy(out.data() + base + w,
                                    line.data() + w, 8);
                    }
                }
                break;
            }
        }
    }
}

void
PmDevice::resetToImage(const std::uint8_t *image, std::size_t len)
{
    FASP_ASSERT(len == durable_.size());
    mc::HookDepthGuard hook_depth;
    for (CacheShard &shard : cacheShards_) {
        MutexLock lk(&shard.mu);
        shard.lines.clear();
    }
    dirtyLines_.store(0, std::memory_order_release);
    crashed_.store(false, std::memory_order_release);
    eventCount_.store(0, std::memory_order_release);
    std::memcpy(durable_.data(), image, len);
    invalidateTagCache();
}

} // namespace fasp::pm
