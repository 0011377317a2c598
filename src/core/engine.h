// fasp-analyze: allow-file(raw-std-sync) -- EngineStats monotonic counters
// and the tx-id allocator; nothing here blocks or guards shared state.
/**
 * @file
 * Engine: the top-level storage-engine interface uniting the paper's
 * schemes and baselines under one API.
 *
 *   FAST      — failure-atomic slotted paging with in-place commit via
 *               HTM for single-page transactions, slot-header logging
 *               otherwise (paper §4.2).
 *   FASH      — slot-header logging for every transaction (§4.1); no
 *               HTM requirement, headers may exceed a cache line.
 *   NVWAL     — DRAM buffer cache + differential logging in PM through
 *               a persistent heap (the paper's main baseline).
 *   LegacyWal — page-granularity WAL in PM (Figure 1b).
 *   Journal   — rollback journal + in-place database writes (Figure 1a).
 *
 * All engines share the same device layout (superblock / bitmap /
 * directory / data pages / log region) and the same B-tree, so every
 * measured difference comes from the commit protocol — as in the
 * paper, where all schemes live inside the same SQLite.
 */

#ifndef FASP_CORE_ENGINE_H
#define FASP_CORE_ENGINE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "btree/btree.h"
#include "btree/tx_page_io.h"
#include "common/status.h"
#include "common/types.h"
#include "htm/rtm.h"
#include "obs/flight_recorder.h"
#include "pager/pager.h"
#include "pm/pcas.h"
#include "wal/recovery_stats.h"

namespace fasp::pm {
class PmDevice;
} // namespace fasp::pm

namespace fasp::core {

/** Which commit protocol an Engine implements. */
enum class EngineKind : std::uint8_t {
    Fast,
    Fash,
    Nvwal,
    LegacyWal,
    Journal,
};

/** Printable name ("FAST", "FASH", "NVWAL", ...). */
const char *engineKindName(EngineKind kind);

/** How FAST publishes a single-page commit's new slot header. */
enum class InPlaceCommitVia : std::uint8_t {
    /** One persistent CAS of header word 0 over a double-buffered
     *  slot array (DESIGN.md §14): word-granular publication, torn-line
     *  tolerant, no HTM requirement, and no shared line-lock table —
     *  concurrent commits to different pages never serialize on each
     *  other. */
    Pcas,
    /** The paper's HTM path: a single-cache-line RTM region publishes
     *  the header, one clflush makes it durable. Relies on the
     *  cache-line write-back being atomic (paper §3.2). */
    Rtm,
};

/** Engine construction parameters. */
struct EngineConfig
{
    EngineKind kind = EngineKind::Fast;

    /** Buffer-cache capacity in pages (buffered engines only). */
    std::size_t volatileCachePages = 4096;

    /** RTM behaviour (FAST only). After rtm.maxRetries consecutive
     *  aborts FAST falls back to slot-header logging for the commit
     *  (paper §3.2 footnote). */
    htm::RtmConfig rtm{.maxRetries = 64};

    /** FAST's in-place publication primitive. Defaults to PCAS; the
     *  RTM path is kept for the ablation benches and the multi-client
     *  scaling comparison that decides between the two. */
    InPlaceCommitVia inPlaceCommitVia = InPlaceCommitVia::Pcas;

    /** PCAS failure-injection / retry policy (FAST + PCAS only). */
    pm::PcasConfig pcas;

    /** Formatting parameters (used when format = true). */
    pager::Pager::FormatParams format;
};

/** Per-engine operation counters. Relaxed atomics so concurrent
 *  transactions update them tear-free; copies snapshot per field. */
struct EngineStats
{
    std::atomic<std::uint64_t> txBegun{0};
    std::atomic<std::uint64_t> txCommitted{0};
    std::atomic<std::uint64_t> txRolledBack{0};
    std::atomic<std::uint64_t> inPlaceCommits{0}; //!< FAST fast path
    std::atomic<std::uint64_t> logCommits{0};     //!< slot-header-log
                                                  //!< commits
    std::atomic<std::uint64_t> pcasFallbacks{0};  //!< FAST PCAS gave up

    EngineStats() = default;
    EngineStats(const EngineStats &other) { copyFrom(other); }

    EngineStats &operator=(const EngineStats &other)
    {
        copyFrom(other);
        return *this;
    }

    void reset() { *this = EngineStats{}; }

  private:
    void copyFrom(const EngineStats &other)
    {
        txBegun = other.txBegun.load(std::memory_order_relaxed);
        txCommitted = other.txCommitted.load(std::memory_order_relaxed);
        txRolledBack =
            other.txRolledBack.load(std::memory_order_relaxed);
        inPlaceCommits =
            other.inPlaceCommits.load(std::memory_order_relaxed);
        logCommits = other.logCommits.load(std::memory_order_relaxed);
        pcasFallbacks =
            other.pcasFallbacks.load(std::memory_order_relaxed);
    }
};

/**
 * One transaction. Also acts as the TxPageIO provider for the B-tree,
 * so callers do:
 *
 *   auto tx = engine->begin();
 *   tree.insert(tx->pageIO(), key, value);
 *   tx->commit();
 */
class Transaction
{
  public:
    virtual ~Transaction() = default;

    /** Page-access provider for B-tree operations. */
    virtual btree::TxPageIO &pageIO() = 0;

    /**
     * Make every change durable and atomic per the engine's protocol.
     * After commit() the transaction is finished.
     */
    virtual Status commit() = 0;

    /** Discard every change. */
    virtual void rollback() = 0;

    TxId id() const { return id_; }
    bool finished() const { return finished_; }

  protected:
    explicit Transaction(TxId id) : id_(id) {}

    TxId id_;
    bool finished_ = false;
};

/**
 * Storage engine over one PM device.
 *
 * Thread safety: begin() and the convenience single-operation
 * transactions may be called from many threads at once. The FAST/FASH
 * engines run truly concurrent transactions under per-page latches and
 * abort with LatchConflict when two clients collide (callers retry);
 * the buffered baselines serialize whole transactions on an internal
 * mutex, reproducing SQLite's single-writer behaviour. create(),
 * recover, and stats reset are quiescent-only.
 *
 * The lock/capability model — which mutex guards which state, the
 * latch → log-mutex ordering, and where the static analysis hands off
 * to TSan — is catalogued in DESIGN.md §10; the concrete annotations
 * live on the derived engines (common/thread_annotations.h). The base
 * class itself needs no capability: its mutable state (stats_,
 * txCounter_) is all relaxed atomics.
 */
class Engine
{
  public:
    /**
     * Create an engine. With @p format the device is formatted fresh;
     * otherwise the existing database is opened and crash recovery
     * runs before the engine is returned.
     */
    static Result<std::unique_ptr<Engine>> create(pm::PmDevice &device,
                                                  const EngineConfig &cfg,
                                                  bool format);

    virtual ~Engine() = default;

    virtual EngineKind kind() const = 0;

    /** Start a transaction. Each thread drives its own transaction;
     *  a single Transaction object is not itself thread-safe. */
    virtual std::unique_ptr<Transaction> begin() = 0;

    // --- Convenience single-operation transactions -----------------------
    // (the Android pattern the paper optimizes: one insert per txn)

    /** Create a B-tree in its own transaction. */
    Result<btree::BTree> createTree(TreeId id);

    /** Single-insert transaction. */
    Status insert(btree::BTree &tree, std::uint64_t key,
                  std::span<const std::uint8_t> value);

    /** Single-update transaction. */
    Status update(btree::BTree &tree, std::uint64_t key,
                  std::span<const std::uint8_t> value);

    /** Single-delete transaction. */
    Status erase(btree::BTree &tree, std::uint64_t key);

    /** Read-only lookup (runs inside a transaction, rolled back). */
    Status get(btree::BTree &tree, std::uint64_t key,
               std::vector<std::uint8_t> &value);

    /**
     * Read-only range scan over [lo, hi] (runs inside a transaction,
     * rolled back). @p fn returns false to stop early; the callback's
     * value span is only valid during the call.
     */
    Status scan(btree::BTree &tree, std::uint64_t lo, std::uint64_t hi,
                const std::function<bool(std::uint64_t,
                                         std::span<const std::uint8_t>)> &fn);

    const pager::Superblock &superblock() const { return sb_; }
    pm::PmDevice &device() { return device_; }

    EngineStats &stats() { return stats_; }
    const EngineStats &stats() const { return stats_; }

    /** The persistent flight recorder, or nullptr when the image has
     *  no recorder region or FlightRecorder::enabled() was off at
     *  create() time. */
    obs::FlightRecorder *flightRecorder()
    {
        return flightRecorder_.get();
    }

  protected:
    Engine(pm::PmDevice &device, const EngineConfig &cfg,
           const pager::Superblock &sb)
        : device_(device), config_(cfg), sb_(sb)
    {}

    /** Fresh-database initialization; runs after format. */
    virtual Status initFresh() = 0;

    /** Post-crash recovery; runs before create() returns. Fills
     *  @p breakdown with the per-phase timings/counters of the pass
     *  (scan / log replay / log discard / torn-record repair), which
     *  create() folds into obs::RecoveryLedger. */
    virtual Status recover(wal::RecoveryBreakdown &breakdown) = 0;

    TxId nextTxId()
    {
        return txCounter_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Flight recorder, or nullptr (transactions null-check per
     *  event: the recorder-off path is one load and a branch). */
    obs::FlightRecorder *recorder() const
    {
        return flightRecorder_.get();
    }

    /** Engine code stored in flight records (EngineKind + 1; 0 is
     *  reserved for "unknown"). */
    std::uint8_t recorderEngineCode() const
    {
        return static_cast<std::uint8_t>(config_.kind) + 1;
    }

    pm::PmDevice &device_;
    EngineConfig config_;
    pager::Superblock sb_;
    EngineStats stats_;
    std::atomic<TxId> txCounter_{0};
    std::unique_ptr<obs::FlightRecorder> flightRecorder_;
};

} // namespace fasp::core

#endif // FASP_CORE_ENGINE_H
