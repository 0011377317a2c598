#include "core/fasp_engine.h"

#include <algorithm>
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
      bitmapIO_(bitmap_), allocator_(bitmapIO_, sb)
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
FaspEngine::recover(wal::RecoveryBreakdown &breakdown)
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
    breakdown.repairNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - repair_started)
            .count());
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
    stats_.add(kTxBegun);
    return std::make_unique<FaspTransaction>(*this, nextTxId());
}

// --- FaspTransaction ---------------------------------------------------------

FaspTransaction::FaspTransaction(FaspEngine &engine, TxId id)
    : Transaction(id), engine_(engine)
{
    engine_.device_.txBegin();
    // The op-begin record is durable before any of this transaction's
    // own persistence, so post-crash forensics can always name the
    // in-flight operation (or prove there was none).
    if (auto *fr = engine_.recorder()) {
        fr->append(obs::FlightEventType::OpBegin,
                   engine_.recorderEngineCode(), id, 0, 0);
    }
    obs::spanBegin(engineKindName(engine_.config_.kind),
                   engine_.recorderEngineCode(), id);
}

FaspTransaction::~FaspTransaction()
{
    if (!finished_)
        rollback();
}

std::size_t
FaspTransaction::pageSize() const
{
    return engine_.sb_.pageSize;
}

PageId
FaspTransaction::directoryPid() const
{
    return engine_.sb_.directoryPid;
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
    std::size_t slot = lt.slotFor(pid);
    auto it = latches_.find(slot);
    if (it == latches_.end()) {
        bool ok = exclusive ? lt.tryAcquireExclusive(slot)
                            : lt.tryAcquireShared(slot);
        if (!ok) {
            obs::spanPageConflict(pid);
            throw LatchConflict(pid);
        }
        latches_.emplace(slot, exclusive ? LatchMode::Exclusive
                                         : LatchMode::Shared);
    } else if (exclusive && it->second == LatchMode::Shared) {
        // Upgrade is sole-reader-only: failure means waiting could
        // deadlock against another upgrader, so conflict-abort.
        if (!lt.tryUpgrade(slot)) {
            obs::spanPageConflict(pid);
            throw LatchConflict(pid);
        }
        it->second = LatchMode::Exclusive;
    }
}

void
FaspTransaction::releaseLatches()
{
    LatchTable &lt = engine_.latches_;
    for (const auto &[slot, mode] : latches_) {
        if (mode == LatchMode::Exclusive)
            lt.releaseExclusive(slot);
        else
            lt.releaseShared(slot);
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
FaspTransaction::allocPage()
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
        // The page is ours alone, but its latch *slot* may be held by
        // a transaction latching a colliding page.
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
    allocs_.push_back(pid);
    // A page allocated while defragmenting is the copy target;
    // anything else is tree growth (a split or a new root/leaf).
    bool defrag = pm::currentThreadComponent() == pm::Component::Defrag;
    if (auto *fr = engine_.recorder()) {
        fr->append(defrag ? obs::FlightEventType::Defrag
                          : obs::FlightEventType::PageSplit,
                   engine_.recorderEngineCode(), id_, pid, 0);
    }
    if (defrag)
        obs::spanDefrag();
    else
        obs::spanSplit();
    return pid;
}

void
FaspTransaction::freePage(PageId pid)
{
    latchPage(pid, /*exclusive=*/true);
    auto it = std::find(allocs_.begin(), allocs_.end(), pid);
    if (it != allocs_.end()) {
        // Allocated and freed within this transaction: it was never
        // reachable, so it can return to the allocator immediately.
        allocs_.erase(it);
        MutexLock lk(&engine_.allocMutex_);
        engine_.allocator_.free(pid);
    } else {
        // Freeing a live page: it must stay unavailable until commit,
        // or an intra-transaction reuse would overwrite its pre-commit
        // (recovery) image in place.
        frees_.push_back(pid);
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
FaspTransaction::rollback()
{
    if (finished_)
        return;
    // In-place content writes landed in durable free space and are
    // simply forgotten; shadow headers never reached PM.
    if (!allocs_.empty()) {
        MutexLock lk(&engine_.allocMutex_);
        for (PageId pid : allocs_)
            engine_.allocator_.free(pid);
    }
    pages_.clear();
    allocs_.clear();
    frees_.clear();
    finished_ = true;
    // Close the checker's write set before dropping exclusion, so no
    // foreign store can land in it mid-check.
    engine_.device_.txEnd(/*committed=*/false);
    if (auto *fr = engine_.recorder()) {
        fr->append(obs::FlightEventType::Abort,
                   engine_.recorderEngineCode(), id_, 0, 0);
    }
    releaseLatches();
    engine_.stats_.add(FaspEngine::kTxRolledBack);
    obs::spanEnd(/*committed=*/false, nullptr);
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
    engine_.stats_.add(FaspEngine::kInPlaceCommits);
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
    engine_.stats_.add(FaspEngine::kLogCommits);
    engine_.device_.txEnd(/*committed=*/true);
    return Status::ok();
}

Status
FaspTransaction::commit()
{
    FASP_ASSERT(!finished_);

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

    Status status = Status::ok();
    bool logged = false;
    const char *commit_path = "read-only";
    if (modified_count == 0 && allocs_.empty() && frees_.empty()) {
        // Read-only transaction: nothing to persist.
    } else if (engine_.config_.kind == EngineKind::Fast &&
               modified_count == 1 && allocs_.empty() &&
               frees_.empty() && !modified->fresh &&
               modified->io->headerDirty() &&
               modified->io->oneWordCommittable()) {
        status = commitInPlace(*modified);
        commit_path = "in-place";
        if (status.code() == StatusCode::TxConflict) {
            // The PCAS lost or spent its retries: fall back to
            // slot-header logging (paper §3.2 footnote 1).
            if (auto *fr = engine_.recorder()) {
                fr->append(obs::FlightEventType::Fallback,
                           engine_.recorderEngineCode(), id_, 0, 0);
            }
            status = commitLogged();
            logged = status.isOk();
            commit_path = "logged";
        }
    } else {
        status = commitLogged();
        logged = status.isOk();
        commit_path = "logged";
    }

    if (!status.isOk())
        return status;
    pages_.clear();
    allocs_.clear();
    frees_.clear();
    finished_ = true;
    // The logged path already ran txEnd under the log mutex; the other
    // paths run it here, still under this transaction's page latches.
    if (!logged)
        engine_.device_.txEnd(/*committed=*/true);
    if (auto *fr = engine_.recorder()) {
        // aux encodes the commit path: 0 read-only, 1 in-place,
        // 2 slot-header-logged.
        std::uint64_t path_code = logged ? 2 : 0;
        if (!logged && commit_path[0] == 'i')
            path_code = 1;
        fr->append(obs::FlightEventType::CommitPoint,
                   engine_.recorderEngineCode(), id_, 0, path_code);
    }
    engine_.stats_.add(FaspEngine::kTxCommitted);
    releaseLatches();
    obs::spanEnd(/*committed=*/true, commit_path);
    return Status::ok();
}

} // namespace fasp::core
