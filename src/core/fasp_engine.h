/**
 * @file
 * FaspEngine: the paper's failure-atomic slotted-paging engines.
 *
 * Runs in two modes (paper Section 4):
 *   FASH — every commit goes through the slot-header log.
 *   FAST — a transaction that modified exactly one leaf, allocated and
 *          freed nothing, and whose new slot header fits a cache line
 *          commits *in place*: the new slot array goes into the leaf's
 *          second slot-array buffer, and one persistent CAS of header
 *          word 0 — one clflush, one fence — switches readers to it
 *          together with the new record count (DESIGN.md §14). The
 *          paper publishes the header line with RTM instead; the CAS
 *          costs the same flush and fence and needs no cache-line
 *          write-back atomicity. Everything else falls back to
 *          slot-header logging, as does FAST itself when the publish
 *          gives up.
 *
 * There is no DRAM buffer cache: the database pages in PM *are* the
 * buffer cache (the paper's PM-only buffer caching).
 *
 * Concurrency (DESIGN.md §9): transactions follow strict two-phase
 * latching over the engine's striped per-page latch table — shared on
 * first read, upgraded or taken exclusive on first write, all held to
 * commit/rollback. Latches are acquired with a bounded spin only;
 * exhaustion throws LatchConflict, which rolls the transaction back so
 * the caller can retry — no hold-and-wait, hence no latch deadlock.
 * The in-place commit publishes its header while still holding the
 * page latch; logged commits additionally serialize on the engine
 * log mutex, since the slot-header log region (and its truncation) is
 * shared. Allocator bitmap updates take a dedicated mutex, always
 * nested inside the log mutex when both are held.
 */

#ifndef FASP_CORE_FASP_ENGINE_H
#define FASP_CORE_FASP_ENGINE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/engine.h"
#include "core/fasp_page_io.h"
#include "pager/latch_table.h"
#include "pm/pcas.h"
#include "wal/slot_header_log.h"

namespace fasp::core {

class FaspEngine;

/** Transaction for FAST/FASH; see file comment. */
class FaspTransaction : public Transaction, public btree::TxPageIO
{
  public:
    FaspTransaction(FaspEngine &engine, TxId id);
    ~FaspTransaction() override;

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
        return pm::Component::InPlaceInsert;
    }
    std::uint16_t maxLeafSlots() const override;

  private:
    struct PageState
    {
        std::unique_ptr<FaspPageIO> io;
        bool fresh = false;
        std::vector<page::RecordRef> reclaims;
    };

    enum class LatchMode : std::uint8_t { Shared, Exclusive };

    PageState &state(PageId pid);
    Status commitInPlace(PageState &st);
    Status commitInPlacePcas(PageState &st);
    Status commitLogged();
    void applyReclaims();

    /** Acquire (or upgrade) the latch slot covering @p pid; throws
     *  LatchConflict when contended past the spin budget. Latches are
     *  tracked per *slot* so same-slot collisions inside one
     *  transaction cannot self-deadlock.
     *
     *  The strict-2PL latch set is acquired page by page, held across
     *  calls, and released at commit/rollback — a dynamic protocol the
     *  intraprocedural -Wthread-safety analysis cannot follow (hence
     *  the opt-out); TSan and the concurrent stress suite check it
     *  instead (DESIGN.md §10). */
    void latchPage(PageId pid, bool exclusive)
        NO_THREAD_SAFETY_ANALYSIS;
    void releaseLatches() NO_THREAD_SAFETY_ANALYSIS;

    FaspEngine &engine_;
    std::unordered_map<PageId, PageState> pages_;
    std::vector<PageId> allocs_;
    std::vector<PageId> frees_;
    std::unordered_map<std::size_t, LatchMode> latches_;
};

/** See file comment. */
class FaspEngine : public Engine
{
  public:
    FaspEngine(pm::PmDevice &device, const EngineConfig &cfg,
               const pager::Superblock &sb);

    EngineKind kind() const override { return config_.kind; }
    std::unique_ptr<Transaction> begin() override;
    Status recover(wal::RecoveryBreakdown &breakdown) override;

    Status initFresh() override;

    /** Quiescent inspection only (tests; no concurrent transactions) —
     *  a contract the intraprocedural analysis cannot see. */
    wal::SlotHeaderLog &log() NO_THREAD_SAFETY_ANALYSIS
    {
        return log_;
    }
    pm::Pcas &pcas() { return pcas_; }
    LatchTable &latches() { return latches_; }

    /** True for FAST, whose single-page commits publish via PCAS. A
     *  stub: perfbench reads it. It goes with the next benchmark change
     *  (ROADMAP item 3). */
    bool commitViaPcas() const { return kind() == EngineKind::Fast; }

    /** Stub: perfbench's htm.rtm_begins metric reads stats().begins,
     *  which stays 0 since FAST has no RTM path. It goes with the next
     *  benchmark change (ROADMAP item 3). */
    struct RtmStub
    {
        struct Stats
        {
            // fasp-analyze: allow(raw-std-sync) -- never written.
            std::atomic<std::uint64_t> begins{0};
        } stats_;
        const Stats &stats() const { return stats_; }
    };
    static const RtmStub &rtm()
    {
        static const RtmStub stub;
        return stub;
    }

  private:
    friend class FaspTransaction;

    /** Recovery pass over allocated slotted pages stripping the PCAS
     *  flag bit a crash between the tagged publish and the (lazily
     *  persisted) tag clear left in header word 0. Returns the number
     *  of words swept. Quiescent-only; requires allocMutex_ because it
     *  walks the freshly loaded bitmap. */
    std::uint64_t sweepHeaderTags() REQUIRES(allocMutex_);

    /** Serializes logged commits: the slot-header log region (cursor,
     *  frames, truncation) is one shared structure. Held across the
     *  whole commitLogged() including the checker's txEnd, so a later
     *  transaction reusing truncated log offsets cannot dirty lines
     *  still in this transaction's checked write set. */
    Mutex logMutex_;

    /** Guards the volatile bitmap mirror + allocator cursor. Nested
     *  inside logMutex_ when both are held, never the reverse. */
    Mutex allocMutex_ ACQUIRED_AFTER(logMutex_);

    wal::SlotHeaderLog log_ GUARDED_BY(logMutex_);
    pm::Pcas pcas_;
    LatchTable latches_;

    /** Volatile mirror of the allocation bitmap (durable updates ride
     *  the slot-header log). */
    std::vector<std::uint8_t> bitmap_ GUARDED_BY(allocMutex_);
    pager::VectorBitmapIO bitmapIO_ GUARDED_BY(allocMutex_);
    pager::PageAllocator allocator_ GUARDED_BY(allocMutex_);
};

} // namespace fasp::core

#endif // FASP_CORE_FASP_ENGINE_H
