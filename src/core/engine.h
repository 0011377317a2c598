// fasp-analyze: allow-file(raw-std-sync) -- the tx-id allocator; the one
// lock held here is a fasp::Mutex (EngineTransaction's serial_).
/**
 * @file
 * Engine: the top-level storage-engine interface uniting the paper's
 * schemes and baselines under one API.
 *
 *   FAST      — failure-atomic slotted paging with in-place commit
 *               (one persistent CAS of the slot header's first word)
 *               for single-page transactions, slot-header logging
 *               otherwise (paper §4.2).
 *   FASH      — slot-header logging for every transaction (§4.1);
 *               headers may exceed a cache line.
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
#include <mutex>
#include <span>
#include <vector>

#include "btree/btree.h"
#include "btree/tx_page_io.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "pager/pager.h"
#include "pm/pcas.h"
#include "pm/thread_counters.h"

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

/** How FAST publishes a single-page commit's new slot header: one
 *  persistent CAS of header word 0 over a double-buffered slot array
 *  (DESIGN.md §14), the only way. A stub: perfbench's provenance line
 *  reads it. It goes with the next benchmark change (ROADMAP item 3). */
enum class InPlaceCommitVia : std::uint8_t { Pcas };

/** Engine construction parameters. */
struct EngineConfig
{
    EngineKind kind = EngineKind::Fast;

    /** Buffer-cache capacity in pages (buffered engines only). */
    std::size_t volatileCachePages = 4096;

    /** Stub with one value; see InPlaceCommitVia. */
    InPlaceCommitVia inPlaceCommitVia = InPlaceCommitVia::Pcas;

    /** PCAS failure-injection / retry policy (FAST only). After
     *  pcas.maxRetries failed attempts FAST falls back to slot-header
     *  logging for the commit (paper §3.2 footnote). */
    pm::PcasConfig pcas;

    /** Formatting parameters (used when format = true). */
    pager::Pager::FormatParams format;
};

/** Per-engine operation counters. A snapshot, by value: the engine
 *  counts in a per-thread ThreadCounters block (pm/thread_counters.h)
 *  and Engine::stats() adds its cells up. */
struct EngineStats
{
    pm::StatCount txBegun;
    pm::StatCount txCommitted;
    pm::StatCount txRolledBack;
    pm::StatCount inPlaceCommits; //!< CommitPath::InPlace commits
    pm::StatCount logCommits;     //!< CommitPath::Logged commits
    pm::StatCount pcasFallbacks;  //!< FAST PCAS gave up
    pm::StatCount pageAllocs;     //!< pages a transaction allocated
    pm::StatCount pageFrees;      //!< pages a transaction freed
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

class Engine;

/** How a transaction committed (paper §4.2). The value is the aux code
 *  of its CommitPoint flight record; the span profiler gets the same
 *  path by name ("read-only", "in-place", "logged"). */
enum class CommitPath : std::uint8_t {
    ReadOnly = 0, //!< nothing to persist
    InPlace = 1,  //!< FAST: one PCAS of the leaf's header word 0
    Logged = 2,   //!< slot-header log, WAL frames or rollback journal
};

/**
 * The half of a transaction that does not depend on the commit
 * protocol, shared by every engine (DESIGN.md §17): the checker's
 * txBegin/txEnd bracket, the flight records and span hooks of begin,
 * page allocation, commit and abort, the EngineStats counts, and the
 * page-reuse rule of DESIGN.md §6. A family supplies page access,
 * allocation and its commit protocol through the hooks below.
 *
 * Ordering: the constructor takes @p serial (the buffered engines'
 * whole-transaction mutex) before the checker bracket, the OpBegin
 * record and the span open; the end of a transaction closes the
 * checker's write set, records the outcome, counts it, drops the page
 * latches, closes the span and only then releases @p serial.
 */
class EngineTransaction : public Transaction, public btree::TxPageIO
{
  public:
    btree::TxPageIO &pageIO() override { return *this; }
    Status commit() override;
    void rollback() override;

    // --- TxPageIO ---------------------------------------------------------
    std::size_t pageSize() const override;
    PageId directoryPid() const override;
    Result<PageId> allocPage() override;
    void freePage(PageId pid) override;

    EngineTransaction(const EngineTransaction &) = delete;
    EngineTransaction &operator=(const EngineTransaction &) = delete;

  protected:
    EngineTransaction(Engine &engine, TxId id, Mutex *serial = nullptr);

    /** Take a free page for this transaction (allocPage()). */
    virtual Result<PageId> allocate() = 0;

    /** Forget @p pid, which this transaction frees; @p reusable: it
     *  was allocated by this same transaction, so it was never
     *  reachable and goes back to the allocator now. */
    virtual void dropPage(PageId pid, bool reusable) = 0;

    /** Run the commit protocol over this transaction's changes. An
     *  error leaves the transaction open. */
    virtual Result<CommitPath> persist() = 0;

    /** Drop this transaction's changes (rollback()). */
    virtual void discard() = 0;

    /** Release the page latches, if the family holds any. */
    virtual void releaseLatches() {}

    /** Close the checker's write set now: a commit protocol that must
     *  do so before releasing its own mutex calls this from persist();
     *  otherwise the end of the transaction does. */
    void closeWriteSet(bool committed);

    /** Append a flight record for this transaction (one load and a
     *  branch while the recorder is off). */
    void record(obs::FlightEventType type, PageId pid, std::uint64_t aux);

    /** Pages allocated by this transaction, in order. */
    std::vector<PageId> allocs_;
    /** Live pages this transaction frees; released at commit. */
    std::vector<PageId> frees_;

  private:
    void end(bool committed, CommitPath path);

    Engine &engine_;
    std::unique_lock<Mutex> serial_;
    bool writeSetOpen_ = true;
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
 * class itself needs no capability: its mutable state is stats_, one
 * cell per thread, and the relaxed atomic txCounter_.
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

    /** Read-only lookup (runs inside a transaction, which commits
     *  read-only). */
    Status get(btree::BTree &tree, std::uint64_t key,
               std::vector<std::uint8_t> &value);

    /**
     * Read-only range scan over [lo, hi] (runs inside a transaction,
     * which commits read-only). @p fn returns false to stop early; the
     * callback's value span is only valid during the call.
     */
    Status scan(btree::BTree &tree, std::uint64_t lo, std::uint64_t hi,
                const std::function<bool(std::uint64_t,
                                         std::span<const std::uint8_t>)> &fn);

    const pager::Superblock &superblock() const { return sb_; }
    pm::PmDevice &device() { return device_; }

    /** Every thread's counts added up. */
    const EngineStats stats() const;

    /** Zero the counters. Quiescent only (benchmark phase starts). */
    void resetStats() { stats_.reset(); }

    /** The persistent flight recorder, or nullptr when the image has
     *  no recorder region or FlightRecorder::enabled() was off at
     *  create() time. */
    obs::FlightRecorder *flightRecorder()
    {
        return flightRecorder_.get();
    }

  protected:
    friend class EngineTransaction;

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
    virtual Status recover(obs::RecoveryBreakdown &breakdown) = 0;

    TxId nextTxId()
    {
        return txCounter_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Engine code stored in flight records (EngineKind + 1; 0 is
     *  reserved for "unknown"). */
    std::uint8_t recorderEngineCode() const
    {
        return static_cast<std::uint8_t>(config_.kind) + 1;
    }

    /** EngineStats fields, counted per thread. */
    enum Stat : std::size_t {
        kTxBegun,
        kTxCommitted,
        kTxRolledBack,
        kInPlaceCommits,
        kLogCommits,
        kPcasFallbacks,
        kPageAllocs,
        kPageFrees,
        kNumStats,
    };

    pm::PmDevice &device_;
    EngineConfig config_;
    pager::Superblock sb_;
    pm::ThreadCounters<kNumStats> stats_;
    std::atomic<TxId> txCounter_{0};
    std::unique_ptr<obs::FlightRecorder> flightRecorder_;
};

} // namespace fasp::core

#endif // FASP_CORE_ENGINE_H
