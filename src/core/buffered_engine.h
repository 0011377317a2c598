/**
 * @file
 * BufferedEngine: common machinery for the baselines that keep a DRAM
 * buffer cache in front of PM — NVWAL, the rollback journal, and
 * page-granularity legacy WAL.
 *
 * Transactions mutate volatile page copies; commit() persists them via
 * the engine-specific protocol (differential WAL frames / journal +
 * in-place overwrite / full-page WAL frames). The allocator bitmap is
 * read and written through cached copies of the bitmap pages, so
 * allocation commits and rolls back with the rest of the transaction
 * for free.
 *
 * Concurrency: the buffer cache tracks one global dirty set, so these
 * baselines serialize whole transactions on an engine mutex held from
 * begin() to commit()/rollback() — reproducing SQLite's single-writer
 * model, which is also what the paper measured. Multi-client
 * throughput for them is therefore flat by design; the latch-based
 * FAST/FASH engines are the ones expected to scale.
 */

#ifndef FASP_CORE_BUFFERED_ENGINE_H
#define FASP_CORE_BUFFERED_ENGINE_H

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/engine.h"
#include "wal/journal.h"
#include "wal/legacy_wal.h"
#include "wal/nvwal_log.h"
#include "wal/volatile_cache.h"

namespace fasp::core {

class BufferedEngine;

/** Transaction over volatile page copies; see file comment. */
class BufferedTransaction : public Transaction, public btree::TxPageIO
{
  public:
    BufferedTransaction(BufferedEngine &engine, TxId id);
    ~BufferedTransaction() override;

    btree::TxPageIO &pageIO() override { return *this; }
    Status commit() override;
    void rollback() override;

    // --- TxPageIO ---------------------------------------------------------
    std::size_t pageSize() const override;
    page::PageIO &page(PageId pid, bool for_write) override;
    Result<PageId> allocPage() override;
    void freePage(PageId pid) override;
    void deferReclaim(PageId pid, const page::RecordRef &ref) override;
    PageId directoryPid() const override;
    pm::Component mutationComponent() const override
    {
        // Updating the DRAM copy: Figure 7 "volatile buffer caching".
        return pm::Component::VolatileCopy;
    }

  private:
    BufferedEngine &engine_;

    /** Whole-transaction serialization (see file comment); taken in
     *  the constructor, dropped when commit()/rollback() finishes.
     *  A lock handed from constructor to commit() is beyond the
     *  intraprocedural -Wthread-safety analysis: the methods that rely
     *  on it re-assert the capability via Mutex::assertHeld()
     *  (DESIGN.md §10). */
    std::unique_lock<Mutex> txLock_;

    std::unordered_map<PageId, std::unique_ptr<page::BufferPageIO>>
        views_;
    std::vector<PageId> allocs_;
    std::vector<PageId> frees_;
};

/** Abstract base; see file comment. */
class BufferedEngine : public Engine
{
  public:
    BufferedEngine(pm::PmDevice &device, const EngineConfig &cfg,
                   const pager::Superblock &sb);

    std::unique_ptr<Transaction> begin() override;

    /** Quiescent inspection only (tests/benches between runs) — a
     *  contract the intraprocedural analysis cannot see. */
    wal::VolatileCache &cache() NO_THREAD_SAFETY_ANALYSIS
    {
        return cache_;
    }

  protected:
    friend class BufferedTransaction;

    /** Read the newest committed image of @p pid from durable state.
     *  Reached through the cache's miss callback while the calling
     *  transaction holds txMutex_ (or during quiescent recovery), so
     *  implementations touch only engine-local durable structures —
     *  never cache_ — and need no capability of their own. */
    virtual void fetchDurable(PageId pid,
                              std::vector<std::uint8_t> &out) = 0;

    /** Engine-specific durable commit of the dirty page set. Called
     *  from BufferedTransaction::commit() under the whole-transaction
     *  mutex. */
    virtual Status persistCommit(TxId txid,
                                 const std::vector<PageId> &dirty)
        REQUIRES(txMutex_) = 0;

    /** BitmapIO over cached copies of the bitmap pages. Reached only
     *  from allocator calls made inside a transaction (txMutex_ held;
     *  re-asserted in the implementations). */
    class CachedBitmapIO : public pager::BitmapIO
    {
      public:
        explicit CachedBitmapIO(BufferedEngine &engine)
            : engine_(engine)
        {}

        std::uint8_t readByte(std::uint32_t index) const override;
        void writeByte(std::uint32_t index, std::uint8_t value) override;

      private:
        BufferedEngine &engine_;
    };

    Mutex txMutex_; //!< serializes whole transactions (begin() to
                    //!< commit()/rollback())
    wal::VolatileCache cache_ GUARDED_BY(txMutex_);
    CachedBitmapIO bitmapIO_;
    pager::PageAllocator allocator_ GUARDED_BY(txMutex_);
};

/** NVWAL: differential logging through a persistent heap (paper §2.2). */
class NvwalEngine : public BufferedEngine
{
  public:
    NvwalEngine(pm::PmDevice &device, const EngineConfig &cfg,
                const pager::Superblock &sb);

    EngineKind kind() const override { return EngineKind::Nvwal; }
    Status initFresh() override;
    Status recover(wal::RecoveryBreakdown &breakdown) override;

    wal::NvwalLog &walLog() { return nvwal_; }

  protected:
    void fetchDurable(PageId pid,
                      std::vector<std::uint8_t> &out) override;
    Status persistCommit(TxId txid,
                         const std::vector<PageId> &dirty) override
        REQUIRES(txMutex_);

  private:
    wal::NvwalLog nvwal_;
};

/** Rollback-journal engine (paper Figure 1a). */
class JournalEngine : public BufferedEngine
{
  public:
    JournalEngine(pm::PmDevice &device, const EngineConfig &cfg,
                  const pager::Superblock &sb);

    EngineKind kind() const override { return EngineKind::Journal; }
    Status initFresh() override;
    Status recover(wal::RecoveryBreakdown &breakdown) override;

    wal::RollbackJournal &journal() { return journal_; }

  protected:
    void fetchDurable(PageId pid,
                      std::vector<std::uint8_t> &out) override;
    Status persistCommit(TxId txid,
                         const std::vector<PageId> &dirty) override
        REQUIRES(txMutex_);

  private:
    wal::RollbackJournal journal_;
};

/** Page-granularity WAL engine (paper Figure 1b). */
class LegacyWalEngine : public BufferedEngine
{
  public:
    LegacyWalEngine(pm::PmDevice &device, const EngineConfig &cfg,
                    const pager::Superblock &sb);

    EngineKind kind() const override { return EngineKind::LegacyWal; }
    Status initFresh() override;
    Status recover(wal::RecoveryBreakdown &breakdown) override;

    wal::LegacyWal &walLog() { return wal_; }

  protected:
    void fetchDurable(PageId pid,
                      std::vector<std::uint8_t> &out) override;
    Status persistCommit(TxId txid,
                         const std::vector<PageId> &dirty) override
        REQUIRES(txMutex_);

  private:
    wal::LegacyWal wal_;
};

} // namespace fasp::core

#endif // FASP_CORE_BUFFERED_ENGINE_H
