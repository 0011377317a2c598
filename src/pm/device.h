/**
 * @file
 * PmDevice: the emulated persistent-memory device.
 *
 * The device models a flat byte-addressable PM address space plus the
 * volatile CPU cache that sits in front of it. It supports two modes:
 *
 *  - Direct: stores hit the durable image immediately. Used by the
 *    benchmarks; latency is still charged through the model, but crashes
 *    cannot be simulated. Fast.
 *
 *  - CacheSim: stores land in a simulated CPU cache (a map of dirty
 *    64-byte lines) and only reach the durable image on clflush. crash()
 *    discards the cache — exactly what power failure does to unflushed
 *    data. Used by the failure-atomicity property tests.
 *
 * All PM accesses made by the library are mediated by this class, which
 * is what makes both the latency accounting and the crash simulation
 * sound.
 *
 * Every store, load, flush, fence, read miss and modelled-latency
 * charge is counted in the device's PmStats, kept per thread in a
 * ThreadCounters block (pm/thread_counters.h), and each store, flush,
 * fence and read miss is also billed once to the calling thread's PM
 * ledger (pm/phase.h), under its innermost PhaseScope Component and its
 * SiteScope tag.
 *
 * Thread safety: the data path (write/read/clflush/sfence and the
 * counters they maintain) is safe to drive from many threads at once —
 * each thread counts in its own cache line, the simulated dirty-line
 * cache is sharded under per-shard mutexes, and the site tag and the
 * ledger are per-thread. Beyond the bytes it stores, a Direct-mode
 * access writes only the shared tag cache (and, while an observer is
 * attached, ticks the event index). *Logical* exclusion over the bytes
 * themselves (no two threads mutating one page) is the engines' job,
 * via the pager's per-page latch table; the device deliberately does
 * not serialize byte access, so a latch-protocol bug shows up as a real
 * data race under ThreadSanitizer instead of being masked here.
 * Crash simulation (crash/reviveAfterCrash/setCrashInjector) and
 * configuration (setChecker) are quiescent-state operations:
 * call them only while no other thread is accessing the device.
 */

#ifndef FASP_PM_DEVICE_H
#define FASP_PM_DEVICE_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "common/byte_io.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "pm/crash.h"
#include "pm/latency.h"
#include "pm/phase.h"
#include "pm/stats.h"
#include "pm/thread_counters.h"

namespace fasp {
class Rng;
} // namespace fasp

namespace fasp::pm {

class PersistencyChecker;

/**
 * Allocator that places the durable image on a 64-byte (cache-line)
 * boundary. Hook points hand `durable_.data() + off` to the model
 * checker, which names per-line resources by `addr / 64`; with an
 * aligned base, line identity is a pure function of the device offset
 * instead of wherever the heap happened to place this buffer, so two
 * devices running the same schedule intern identical resource tokens.
 * (Real PM mappings are page-aligned, so this also matches the modelled
 * hardware.)
 */
template <typename T>
struct LineAlignedAlloc
{
    using value_type = T;

    LineAlignedAlloc() = default;
    template <typename U>
    LineAlignedAlloc(const LineAlignedAlloc<U> &) noexcept {}

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{kCacheLineSize}));
    }
    void deallocate(T *p, std::size_t n) noexcept
    {
        ::operator delete(p, n * sizeof(T),
                          std::align_val_t{kCacheLineSize});
    }

    template <typename U>
    bool operator==(const LineAlignedAlloc<U> &) const noexcept
    {
        return true;
    }
    template <typename U>
    bool operator!=(const LineAlignedAlloc<U> &) const noexcept
    {
        return false;
    }
};

/**
 * Fault-injection hook: silently discard the durability effect of
 * selected flushes (CacheSim mode only). A dropped flush still raises
 * the event, charges latency, and is reported to the checker and the
 * ledger — the software believes the line persisted — but the dirty
 * line is discarded instead of written back to the durable image. This
 * models a missing-flush bug the runtime ordering checker *cannot* see
 * (the flush instruction was issued); only an end-to-end oracle that
 * compares post-crash contents against a model catches it. Used by
 * fasp-soak's seeded must-fail mutation. Attach/detach is
 * quiescent-only; shouldDrop() may be called from any thread.
 */
class FlushDropper
{
  public:
    virtual ~FlushDropper() = default;

    /** Return true to drop the write-back of the line at @p lineBase;
     *  @p index is the device-wide persistence-event index. */
    virtual bool shouldDrop(PmOffset lineBase, std::uint64_t index) = 0;
};

/** Device operating mode; see file comment. */
enum class PmMode : std::uint8_t {
    Direct,   //!< stores persist immediately (benchmarking)
    CacheSim, //!< stores buffered in a simulated CPU cache (crash tests)
};

/** How crash() treats dirty cache lines. */
enum class CrashPolicy : std::uint8_t {
    DropAll,      //!< no dirty line survives (clean power cut)
    RandomLines,  //!< each dirty line independently persists or not
                  //!< (models arbitrary cache eviction before the crash)
    TornLines,    //!< each aligned 8-byte word of each dirty line
                  //!< independently persists (8-byte atomic unit only;
                  //!< the adversary for schemes needing line atomicity)
};

/** Construction-time configuration of a device. */
struct PmConfig
{
    std::size_t size = 64u << 20;        //!< device capacity in bytes
    PmMode mode = PmMode::Direct;
    LatencyModel latency;
    std::size_t tagCacheLines = 1u << 19;//!< simulated CPU cache capacity
                                         //!< (default 32 MiB of lines,
                                         //!< close to the testbed's LLC)
    CrashPolicy crashPolicy = CrashPolicy::DropAll;
    std::uint64_t crashSeed = 42;        //!< RNG seed for adversarial
                                         //!< crash policies

    /** Model CLWB instead of CLFLUSH: the written-back line stays in
     *  the CPU cache, so later reads of it do not pay PM latency
     *  (the paper's Figure 3 issues CLWBs). Same write-latency charge
     *  and durability semantics. */
    bool useClwb = false;
};

/**
 * Emulated PM device; see file comment for the concurrency contract.
 */
class PmDevice
{
  public:
    explicit PmDevice(const PmConfig &config);
    ~PmDevice();

    PmDevice(const PmDevice &) = delete;
    PmDevice &operator=(const PmDevice &) = delete;

    /** Device capacity in bytes. */
    std::size_t size() const { return durable_.size(); }

    PmMode mode() const { return config_.mode; }

    const LatencyModel &latency() const { return config_.latency; }

    // --- Data path -----------------------------------------------------

    /** Store @p len bytes from @p src at @p off. Volatile until flushed
     *  (CacheSim) or immediately durable (Direct). */
    void write(PmOffset off, const void *src, std::size_t len);

    /** Load @p len bytes at @p off into @p dst, charging read latency. */
    void read(PmOffset off, void *dst, std::size_t len);

    /** Typed store/load helpers (little-endian on-PM format). */
    void writeU16(PmOffset off, std::uint16_t v) { write(off, &v, 2); }
    void writeU32(PmOffset off, std::uint32_t v) { write(off, &v, 4); }
    void writeU64(PmOffset off, std::uint64_t v) { write(off, &v, 8); }

    std::uint16_t readU16(PmOffset off)
    {
        std::uint16_t v;
        read(off, &v, 2);
        return v;
    }

    std::uint32_t readU32(PmOffset off)
    {
        std::uint32_t v;
        read(off, &v, 4);
        return v;
    }

    std::uint64_t readU64(PmOffset off)
    {
        std::uint64_t v;
        read(off, &v, 8);
        return v;
    }

    /** Fill [off, off+len) with @p byte (a store). */
    void memset(PmOffset off, std::uint8_t byte, std::size_t len);

    // --- Atomic primitives (the persistent-CAS substrate) ---------------

    /**
     * Atomic compare-and-swap of the aligned 8-byte word at @p off.
     * On success the word becomes @p desired (volatile until flushed in
     * CacheSim mode, like any store) and true is returned; on failure
     * @p expected is updated to the current value. @p off must be
     * 8-byte aligned. Raises a PmCas scheduling point and counts as a
     * store (success) or load (failure) in the accounting.
     *
     * This is the ONLY cross-thread atomic the device offers; all
     * callers must go through src/pm/pcas.* (enforced by the
     * fasp-analyze `raw-cas` rule) so the dirty-flag persistence
     * protocol stays in one place.
     */
    bool casU64(PmOffset off, std::uint64_t &expected,
                std::uint64_t desired);

    /** Atomic (acquire) load of the aligned 8-byte word at @p off.
     *  Unlike read() this never consults the checker's tagged-word
     *  tracking: it is the pcas layer's tag-aware read. */
    std::uint64_t loadU64Atomic(PmOffset off);

    /** Store that is best-effort by contract (free-list hints, lazily
     *  rebuilt metadata). Identical to write() on the data path; the
     *  attached checker does not require it to become durable. */
    void writeScratch(PmOffset off, const void *src, std::size_t len);

    // --- Persistence path ----------------------------------------------

    /** Flush the cache line containing @p off to the durable image. */
    void clflush(PmOffset off);

    /** clflush every line overlapping [off, off+len). */
    void flushRange(PmOffset off, std::size_t len);

    /** Store fence: orders the calling thread's prior flushes before
     *  its later stores. Modelled as an accounting event only. */
    void sfence();

    // --- Persistency checking ------------------------------------------

    /** Attach the persistency-ordering checker (nullptr to detach;
     *  quiescent only). The checker observes every
     *  store/clflush/sfence/crash, from every thread. */
    void setChecker(PersistencyChecker *checker)
    {
        checker_.store(checker, std::memory_order_release);
    }

    PersistencyChecker *checker() const
    {
        return checker_.load(std::memory_order_acquire);
    }

    /** Declare pending stores in [off, off+len) best-effort after the
     *  fact (e.g. the content of a page being freed). No-op without a
     *  checker. */
    void markScratch(PmOffset off, std::size_t len);

    /**
     * Commit-protocol annotations for the checker. txBegin() opens the
     * *calling thread's* transaction write set (nested calls join the
     * enclosing one); txCommitPoint() marks the instant just before the
     * store that makes the transaction visible to recovery — every line
     * of the write set must be flushed AND fenced by then; txEnd()
     * closes the set (committed: re-check; aborted: the leftover dirty
     * lines are forgotten data, exempt). All three are safe on a
     * crashed device (they run during unwinding) and no-ops without a
     * checker. Under concurrency, call txEnd() while still holding
     * whatever excludes other threads from the write set's lines (page
     * latches, the log mutex) so no foreign store lands in the set
     * between the last fence and the check.
     */
    void txBegin();
    void txCommitPoint();
    void txEnd(bool committed = true);

    /** Install @p site as the calling thread's site tag — recorded
     *  into checker traces and billed in the ledger — returning the
     *  previous tag (see SiteScope). The tag is thread-local:
     *  concurrent clients never see each other's tags. */
    const char *setSite(const char *site) { return setThreadSite(site); }

    const char *site() const { return threadSite(); }

    // --- Crash simulation ----------------------------------------------

    /** Simulate power failure per the configured CrashPolicy
     *  (CacheSim mode only; quiescent only). All unflushed lines are
     *  (partially) discarded; subsequent access panics until the device
     *  image is re-opened by a new engine. */
    void crash();

    /** True once crash() ran (or an injected crash fired). */
    bool crashed() const
    {
        return crashed_.load(std::memory_order_acquire);
    }

    /** Forget the crashed state so a recovery pass may re-open the
     *  durable image in place. Clears the simulated cache. */
    void reviveAfterCrash();

    /** Change the policy applied by subsequent crash() calls
     *  (quiescent only; fasp-soak rotates policies between rounds). */
    void setCrashPolicy(CrashPolicy policy)
    {
        config_.crashPolicy = policy;
    }

    /** Number of dirty (unflushed) lines in the simulated cache. */
    std::size_t dirtyLineCount() const
    {
        return dirtyLines_.load(std::memory_order_acquire);
    }

    /** Install @p injector (nullptr to remove; quiescent only). The
     *  device consults it at every persistence event. */
    void setCrashInjector(CrashInjector *injector)
    {
        injector_.store(injector, std::memory_order_release);
    }

    /** Install @p dropper (nullptr to remove; quiescent only). See
     *  FlushDropper for semantics; CacheSim mode only. */
    void setFlushDropper(FlushDropper *dropper)
    {
        flushDropper_.store(dropper, std::memory_order_release);
    }

    /**
     * Device-wide persistence-event index (stores, CASes, flushes and
     * fences). It ticks only while a crash injector, flush dropper or
     * checker is attached, the only readers of the index; with none
     * attached the counter stands still, so events are counted from a
     * base read before attaching one (`eventCount() + k`), never from
     * construction.
     */
    std::uint64_t eventCount() const
    {
        return eventCount_.load(std::memory_order_acquire);
    }

    // --- Accounting ----------------------------------------------------

    /** Every thread's counts added up (see PmStats). */
    const PmStats stats() const;

    /** Zero the counters. Quiescent only (benchmark phase starts). */
    void resetStats() { stats_.reset(); }

    /** Forget which lines the simulated CPU cache holds, so the next
     *  read of every line is a miss (used between benchmark phases). */
    void invalidateTagCache();

    // --- Model-check support --------------------------------------------

    /**
     * Compose into @p out the durable image a crash at this instant
     * would leave behind — durable bytes plus the @p policy-chosen
     * subset of currently-dirty cache lines, decided by a private RNG
     * seeded with @p seed — WITHOUT disturbing the live device. The
     * model checker forks one of these at explored fences, loads it
     * into a scratch device (resetToImage) and runs recovery on it
     * while the real run continues.
     */
    void composeCrashImage(CrashPolicy policy, std::uint64_t seed,
                           std::vector<std::uint8_t> &out);

    /**
     * Reset the device to the pristine state it would have just after
     * construction over @p len bytes of durable image @p image:
     * simulated cache emptied, crashed flag and event counter cleared,
     * tag cache invalidated. @p len must equal size(). Quiescent only;
     * the model checker uses it to rewind one device across thousands
     * of schedules instead of re-allocating 64 MiB each run.
     */
    void resetToImage(const std::uint8_t *image, std::size_t len);

    // --- Test-only inspection -------------------------------------------

    /** Direct pointer to the durable image (what survives a crash).
     *  Reading through this performs no accounting; tests only. */
    const std::uint8_t *durableData() const { return durable_.data(); }

    /** Read @p len bytes of the durable image without accounting or the
     *  cache overlay; tests only. */
    void readDurable(PmOffset off, void *dst, std::size_t len) const;

  private:
    using LineBuf = std::array<std::uint8_t, kCacheLineSize>;

    /** One shard of the simulated dirty-line cache (CacheSim mode).
     *  Sharding keeps concurrent clients off one global lock. */
    struct CacheShard
    {
        Mutex mu;
        std::unordered_map<PmOffset, LineBuf> lines GUARDED_BY(mu);
    };

    static constexpr std::size_t kCacheShards = 64;

    CacheShard &shardFor(PmOffset line_base)
    {
        return cacheShards_[(line_base / kCacheLineSize) % kCacheShards];
    }

    void writeImpl(PmOffset off, const void *src, std::size_t len,
                   bool scratch);
    std::uint64_t raiseEvent(PmEvent event);
    void chargeReadLatency(PmOffset off, std::size_t len);
    void checkRange(PmOffset off, std::size_t len) const;
    void checkAlive() const;

    PmConfig config_;
    std::vector<std::uint8_t, LineAlignedAlloc<std::uint8_t>> durable_;

    /** Simulated CPU cache: dirty lines only (CacheSim mode). */
    std::array<CacheShard, kCacheShards> cacheShards_;
    std::atomic<std::size_t> dirtyLines_{0};

    /** Direct-mapped tag array for read-latency charging. Entry value is
     *  line_base + 1 (0 = empty). Racy updates are benign: the tag
     *  cache is a latency-charging heuristic, not data. */
    std::vector<std::atomic<PmOffset>> tags_;
    std::size_t tagMask_;

    /** PmStats fields, counted per thread. */
    enum Stat : std::size_t {
        kStores,
        kStoreBytes,
        kLoads,
        kLoadBytes,
        kClflushes,
        kFences,
        kReadMisses,
        kModelNs,
        kNumStats,
    };
    ThreadCounters<kNumStats> stats_;

    std::atomic<CrashInjector *> injector_{nullptr};
    std::atomic<FlushDropper *> flushDropper_{nullptr};
    std::atomic<PersistencyChecker *> checker_{nullptr};
    std::atomic<std::uint64_t> eventCount_{0};
    std::atomic<bool> crashed_{false};
    std::unique_ptr<Rng> crashRng_;
};

/** RAII site tag: names the code region for checker traces and the
 *  ledger's site cells. @p site must be a literal (see setThreadSite). */
class SiteScope
{
  public:
    SiteScope(PmDevice &device, const char *site)
        : device_(device), prev_(device.setSite(site))
    {}

    ~SiteScope() { device_.setSite(prev_); }

    SiteScope(const SiteScope &) = delete;
    SiteScope &operator=(const SiteScope &) = delete;

  private:
    PmDevice &device_;
    const char *prev_;
};

} // namespace fasp::pm

#endif // FASP_PM_DEVICE_H
