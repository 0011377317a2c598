#include "core/fasp_engine.h"

#include <chrono>

#include "common/logging.h"
#include "obs/span.h"
#include "page/slotted_page.h"
#include "pm/device.h"

namespace fasp::core {

using pm::Component;
using pm::PhaseScope;

// --- FaspEngine --------------------------------------------------------------

FaspEngine::FaspEngine(pm::PmDevice &device, const EngineConfig &cfg,
                       const pager::Superblock &sb)
    : Engine(device, cfg, sb), log_(device, sb), pcas_(device, cfg.pcas),
      latches_(sb.pageCount), bitmapIO_(bitmap_), allocator_(bitmapIO_, sb)
{
    FASP_ASSERT(cfg.kind == EngineKind::Fast ||
                cfg.kind == EngineKind::Fash);
    pager::Pager::loadBitmap(device_, sb_, bitmap_);
}

Status
FaspEngine::initFresh()
{
    // Quiescent (no transactions yet), but the guard discipline is
    // uniform: bitmap state is only ever touched under allocMutex_.
    MutexLock lk(&allocMutex_);
    pager::Pager::loadBitmap(device_, sb_, bitmap_);
    return Status::ok();
}

Status
FaspEngine::recover(obs::RecoveryBreakdown &breakdown)
{
    PhaseScope phase(Component::Recovery);
    // Recovery is quiescent by contract; hold the log mutex anyway so
    // every log_ access in the program is provably under it.
    MutexLock logLock(&logMutex_);

    auto result = log_.recover(&breakdown);
    if (!result.isOk())
        return result.status();

    // Replayed headers invalidate the affected pages' intra-page free
    // lists (scratch writes may have been lost); rebuild them lazily
    // now rather than on first touch (paper §4.3). This is repair of
    // potentially-torn volatile-by-contract state, so it bills to the
    // torn-record-repair phase.
    auto repair_started = std::chrono::steady_clock::now();
    for (PageId pid : result->touchedPages) {
        FaspPageIO io(device_, sb_.pageOffset(pid), sb_.pageSize,
                      /*write_through=*/true);
        if (page::pageType(io) == page::PageType::Leaf ||
            page::pageType(io) == page::PageType::Internal) {
            page::rebuildFreeList(io);
        }
    }

    // The bitmap is only current after replay.
    MutexLock allocLock(&allocMutex_);
    pager::Pager::loadBitmap(device_, sb_, bitmap_);

    // A crash between a PCAS publish and its lazily persisted clear
    // leaves the flag bit in a durable header word 0; strip it now
    // that the bitmap says which pages are live.
    sweepHeaderTags();
    breakdown.repairNs += obs::nsSince(repair_started);
    return Status::ok();
}

std::uint64_t
FaspEngine::sweepHeaderTags()
{
    pm::SiteScope site(device_, "FaspEngine::sweepHeaderTags");
    std::uint64_t swept = 0;
    for (PageId pid = sb_.directoryPid; pid < sb_.pageCount; ++pid) {
        if (pid > sb_.directoryPid && !allocator_.isAllocated(pid))
            continue;
        // Only slotted pages take PCAS publishes, and only in word 0;
        // on overflow/meta pages bit 63 of that word is data. The type
        // is readable even from a tagged word 0: the flag is bit 63,
        // the top bit of the level field.
        PmOffset off = sb_.pageOffset(pid);
        FaspPageIO io(device_, off, sb_.pageSize,
                      /*write_through=*/false);
        page::PageType type = page::pageType(io);
        if (type != page::PageType::Leaf &&
            type != page::PageType::Internal)
            continue;
        // A tagged word 0 is in the durable image, so its value is
        // durable by definition: strip the flag.
        std::uint64_t word = io.durableWord0();
        if (!pm::pcasTagged(word))
            continue;
        device_.writeU64(off, pm::pcasStrip(word));
        device_.clflush(off);
        ++swept;
    }
    if (swept > 0)
        device_.sfence();
    return swept;
}

std::unique_ptr<Transaction>
FaspEngine::begin()
{
    return std::make_unique<FaspTransaction>(*this, nextTxId());
}

// --- FaspTransaction ---------------------------------------------------------

FaspTransaction::FaspTransaction(FaspEngine &engine, TxId id)
    : EngineTransaction(engine, id), engine_(engine)
{}

FaspTransaction::~FaspTransaction()
{
    rollback();
}

std::uint16_t
FaspTransaction::maxLeafSlots() const
{
    // FAST: leaf slot headers must fit one cache line (paper §4.2).
    return engine_.config_.kind == EngineKind::Fast
               ? page::kMaxInPlaceSlots
               : 0;
}

void
FaspTransaction::latchPage(PageId pid, bool exclusive)
{
    LatchTable &lt = engine_.latches_;
    auto it = latches_.find(pid);
    if (it == latches_.end()) {
        bool ok = exclusive ? lt.tryAcquireExclusive(pid)
                            : lt.tryAcquireShared(pid);
        if (!ok)
            throw LatchConflict(pid);
        latches_.emplace(pid, exclusive ? LatchMode::Exclusive
                                        : LatchMode::Shared);
    } else if (exclusive && it->second == LatchMode::Shared) {
        // Upgrade is sole-reader-only: failure means waiting could
        // deadlock against another upgrader, so conflict-abort.
        if (!lt.tryUpgrade(pid))
            throw LatchConflict(pid);
        it->second = LatchMode::Exclusive;
    }
}

void
FaspTransaction::releaseLatches()
{
    LatchTable &lt = engine_.latches_;
    for (const auto &[pid, mode] : latches_) {
        if (mode == LatchMode::Exclusive)
            lt.releaseExclusive(pid);
        else
            lt.releaseShared(pid);
    }
    latches_.clear();
}

FaspTransaction::PageState &
FaspTransaction::state(PageId pid)
{
    auto it = pages_.find(pid);
    if (it == pages_.end()) {
        PageState st;
        st.io = std::make_unique<FaspPageIO>(
            engine_.device_, engine_.sb_.pageOffset(pid),
            engine_.sb_.pageSize, /*write_through=*/false);
        it = pages_.emplace(pid, std::move(st)).first;
    }
    return it->second;
}

page::PageIO &
FaspTransaction::page(PageId pid, bool for_write)
{
    latchPage(pid, for_write);
    obs::spanPageAccess(pid, for_write);
    PageState &st = state(pid);
    if (for_write && !st.fresh && !st.io->hasShadow())
        st.io->materializeShadow();
    return *st.io;
}

Result<PageId>
FaspTransaction::allocate()
{
    PageId pid;
    {
        MutexLock lk(&engine_.allocMutex_);
        auto allocated = engine_.allocator_.allocate();
        if (!allocated.isOk())
            return allocated;
        pid = *allocated;
    }
    try {
        // The page is ours alone, but its latch may still be held for
        // an instant by the transaction that just returned it to the
        // allocator: rollback() frees allocs_ and commit frees frees_
        // before releaseLatches().
        latchPage(pid, /*exclusive=*/true);
    } catch (const LatchConflict &) {
        MutexLock lk(&engine_.allocMutex_);
        engine_.allocator_.free(pid);
        throw;
    }
    PageState st;
    st.io = std::make_unique<FaspPageIO>(
        engine_.device_, engine_.sb_.pageOffset(pid),
        engine_.sb_.pageSize, /*write_through=*/true);
    st.fresh = true;
    pages_[pid] = std::move(st);
    return pid;
}

void
FaspTransaction::dropPage(PageId pid, bool reusable)
{
    latchPage(pid, /*exclusive=*/true);
    if (reusable) {
        MutexLock lk(&engine_.allocMutex_);
        engine_.allocator_.free(pid);
    }
    // Whatever this transaction stored into the page is now dead data:
    // it will never be flushed, by design.
    engine_.device_.markScratch(engine_.sb_.pageOffset(pid),
                                engine_.sb_.pageSize);
    pages_.erase(pid);
}

void
FaspTransaction::deferReclaim(PageId pid, const page::RecordRef &ref)
{
    latchPage(pid, /*exclusive=*/true);
    state(pid).reclaims.push_back(ref);
}

void
FaspTransaction::applyReclaims()
{
    for (auto &[pid, st] : pages_) {
        if (st.reclaims.empty())
            continue;
        for (const page::RecordRef &ref : st.reclaims)
            page::reclaimExtent(*st.io, ref);
        st.reclaims.clear();
    }
}

void
FaspTransaction::discard()
{
    // In-place content writes landed in durable free space and are
    // simply forgotten; shadow headers never reached PM.
    if (!allocs_.empty()) {
        MutexLock lk(&engine_.allocMutex_);
        for (PageId pid : allocs_)
            engine_.allocator_.free(pid);
    }
}

Status
FaspTransaction::commitInPlace(PageState &st)
{
    pm::SiteScope site(engine_.device_, "FaspTransaction::commitInPlace");
    // (i) Persist the in-place record writes (Figure 7). The new slot
    // array rides along in the buffer readers do not use: it stays
    // invisible until word 0 switches to it, so it persists like record
    // content, under the same fence.
    {
        PhaseScope phase(Component::FlushRecord);
        st.io->flushDirtyRanges();
        st.io->stageSlotArray();
        engine_.device_.sfence();
    }
    // (ii) The in-place commit mark (paper §3.2 / DESIGN.md §14).
    FASP_RETURN_IF_ERROR(commitInPlacePcas(st));
    {
        PhaseScope phase(Component::CommitMisc);
        applyReclaims();
    }
    return Status::ok();
}

Status
FaspTransaction::commitInPlacePcas(PageState &st)
{
    // One persistent CAS of header word 0 publishes the new nrec and
    // contentStart and switches readers to the slot array staged above:
    // one flush + one fence, the same bill as the paper's RTM publish
    // of the header line, but word-atomic, so a torn cache line cannot
    // expose half a header (DESIGN.md §14).
    PhaseScope phase(Component::Atomic64BWrite);
    engine_.device_.txCommitPoint();
    pm::PcasResult result = engine_.pcas_.cas(
        st.io->pageOff(), st.io->durableWord0(), st.io->publishedWord0());
    if (result != pm::PcasResult::Ok) {
        engine_.stats_.add(FaspEngine::kPcasFallbacks);
        return Status(StatusCode::TxConflict,
                      result == pm::PcasResult::Exhausted
                          ? "pcas retries exhausted"
                          : "pcas conflict");
    }
    return Status::ok();
}

Status
FaspTransaction::commitLogged()
{
    pm::SiteScope site(engine_.device_, "FaspTransaction::commitLogged");

    // The slot-header log (cursor, frames, truncation) is one shared
    // region: logged commits serialize on it. Held through txEnd so a
    // later commit reusing truncated offsets cannot dirty lines still
    // in this transaction's checked write set.
    MutexLock logLock(&engine_.logMutex_);

    // (1) Flush in-place record writes; order among them is free as
    // long as they all precede the commit mark (paper §3.3).
    {
        PhaseScope phase(Component::FlushRecord);
        bool flushed = false;
        for (auto &[pid, st] : pages_) {
            if (st.io->contentDirty()) {
                st.io->flushDirtyRanges();
                flushed = true;
            }
        }
        if (flushed)
            engine_.device_.sfence();
    }

    // (2) Copy the updated slot headers into the slot-header log
    // (stores only; Figure 7 "update slot header").
    {
        PhaseScope phase(Component::UpdateSlotHeader);
        engine_.log_.begin();
        for (auto &[pid, st] : pages_) {
            if (!st.fresh && st.io->headerDirty()) {
                FASP_RETURN_IF_ERROR(engine_.log_.appendPageHeader(
                    pid, st.io->shadowBytes()));
            }
        }
        for (PageId pid : allocs_)
            FASP_RETURN_IF_ERROR(engine_.log_.appendPageAlloc(pid));
        for (PageId pid : frees_)
            FASP_RETURN_IF_ERROR(engine_.log_.appendPageFree(pid));
    }

    // (3) Flush the log and write the commit mark (Figure 8
    // "Log Flush").
    {
        PhaseScope phase(Component::LogFlush);
        FASP_RETURN_IF_ERROR(engine_.log_.commit(id_));
    }

    // (4) Eager checkpoint + truncate (Figure 8 "Checkpointing").
    {
        PhaseScope phase(Component::Checkpoint);
        FASP_RETURN_IF_ERROR(engine_.log_.checkpointAndTruncate());
    }

    // (5) Post-commit bookkeeping.
    {
        PhaseScope phase(Component::CommitMisc);
        applyReclaims();
        if (!frees_.empty()) {
            MutexLock lk(&engine_.allocMutex_);
            for (PageId pid : frees_)
                engine_.allocator_.free(pid);
        }
    }
    closeWriteSet(/*committed=*/true);
    return Status::ok();
}

Result<CommitPath>
FaspTransaction::persist()
{
    // Classify the transaction (paper §4.2: FAST checks whether the
    // transaction modified multiple pages, overflowed, or defragged).
    PageState *modified = nullptr;
    std::size_t modified_count = 0;
    for (auto &[pid, st] : pages_) {
        if (st.fresh || st.io->headerDirty() || st.io->contentDirty()) {
            modified = &st;
            modified_count++;
        }
    }

    CommitPath path = CommitPath::Logged;
    if (modified_count == 0 && allocs_.empty() && frees_.empty()) {
        // Read-only transaction: nothing to persist.
        path = CommitPath::ReadOnly;
    } else if (engine_.config_.kind == EngineKind::Fast &&
               modified_count == 1 && allocs_.empty() &&
               frees_.empty() && !modified->fresh &&
               modified->io->headerDirty() &&
               modified->io->oneWordCommittable()) {
        Status status = commitInPlace(*modified);
        if (status.code() == StatusCode::TxConflict) {
            // The PCAS lost or spent its retries: fall back to
            // slot-header logging (paper §3.2 footnote 1).
            record(obs::FlightEventType::Fallback, 0, 0);
        } else {
            FASP_RETURN_IF_ERROR(status);
            path = CommitPath::InPlace;
        }
    }
    // The logged commit closes the checker's write set under the log
    // mutex; the other paths leave it to the end of the transaction,
    // still under this transaction's page latches.
    if (path == CommitPath::Logged)
        FASP_RETURN_IF_ERROR(commitLogged());
    return path;
}

} // namespace fasp::core
