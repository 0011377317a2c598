#include "core/buffered_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/span.h"
#include "page/slotted_page.h"
#include "pm/device.h"

namespace fasp::core {

using pm::Component;
using pm::PhaseScope;

// --- BufferedEngine ----------------------------------------------------------

BufferedEngine::BufferedEngine(pm::PmDevice &device,
                               const EngineConfig &cfg,
                               const pager::Superblock &sb)
    : Engine(device, cfg, sb),
      cache_(sb.pageSize, cfg.volatileCachePages,
             [this](PageId pid, std::vector<std::uint8_t> &out) {
                 fetchDurable(pid, out);
             }),
      bitmapIO_(*this), allocator_(bitmapIO_, sb)
{}

std::unique_ptr<Transaction>
BufferedEngine::begin()
{
    stats_.txBegun++;
    return std::make_unique<BufferedTransaction>(*this, nextTxId());
}

std::uint8_t
BufferedEngine::CachedBitmapIO::readByte(std::uint32_t index) const
{
    engine_.txMutex_.assertHeld(); // allocator runs inside the tx
    PageId pid = 1 + index / engine_.sb_.pageSize;
    std::uint32_t off = index % engine_.sb_.pageSize;
    return engine_.cache_.get(pid).data[off];
}

void
BufferedEngine::CachedBitmapIO::writeByte(std::uint32_t index,
                                          std::uint8_t value)
{
    engine_.txMutex_.assertHeld(); // allocator runs inside the tx
    PageId pid = 1 + index / engine_.sb_.pageSize;
    std::uint32_t off = index % engine_.sb_.pageSize;
    engine_.cache_.get(pid).data[off] = value;
    engine_.cache_.markDirty(pid);
}

// --- BufferedTransaction -----------------------------------------------------

BufferedTransaction::BufferedTransaction(BufferedEngine &engine, TxId id)
    : Transaction(id), engine_(engine), txLock_(engine.txMutex_)
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

BufferedTransaction::~BufferedTransaction()
{
    if (!finished_)
        rollback();
}

std::size_t
BufferedTransaction::pageSize() const
{
    return engine_.sb_.pageSize;
}

PageId
BufferedTransaction::directoryPid() const
{
    return engine_.sb_.directoryPid;
}

page::PageIO &
BufferedTransaction::page(PageId pid, bool for_write)
{
    engine_.txMutex_.assertHeld(); // taken by the constructor
    obs::spanPageAccess(pid, for_write);
    wal::CachedPage &cached = engine_.cache_.get(pid);
    engine_.cache_.pin(pid);
    if (for_write)
        engine_.cache_.markDirty(pid);
    auto it = views_.find(pid);
    if (it == views_.end()) {
        it = views_
                 .emplace(pid, std::make_unique<page::BufferPageIO>(
                                   cached.data.data(),
                                   cached.data.size()))
                 .first;
    }
    return *it->second;
}

Result<PageId>
BufferedTransaction::allocPage()
{
    engine_.txMutex_.assertHeld(); // taken by the constructor
    auto pid = engine_.allocator_.allocate();
    if (!pid.isOk())
        return pid;
    // Materialize and pin the (stale) base image; the caller formats
    // it. Stale record bytes are unreachable once the header is
    // rewritten, exactly as in SQLite.
    engine_.cache_.get(*pid);
    engine_.cache_.pin(*pid);
    engine_.cache_.markDirty(*pid);
    allocs_.push_back(*pid);
    // A page allocated while defragmenting is the copy target;
    // anything else is tree growth (a split or a new root/leaf).
    bool defrag = pm::currentThreadComponent() == pm::Component::Defrag;
    if (auto *fr = engine_.recorder()) {
        fr->append(defrag ? obs::FlightEventType::Defrag
                          : obs::FlightEventType::PageSplit,
                   engine_.recorderEngineCode(), id_, *pid, 0);
    }
    if (defrag)
        obs::spanDefrag();
    else
        obs::spanSplit();
    return pid;
}

void
BufferedTransaction::freePage(PageId pid)
{
    engine_.txMutex_.assertHeld(); // taken by the constructor
    auto it = std::find(allocs_.begin(), allocs_.end(), pid);
    if (it != allocs_.end()) {
        // Allocated and freed within this transaction: never became
        // reachable, so it may be recycled immediately.
        allocs_.erase(it);
        engine_.allocator_.free(pid);
        engine_.cache_.rollbackPage(pid); // discard scribbles
    } else {
        // A live page must stay unavailable until commit: releasing
        // its id now would let this same transaction recycle it as a
        // fresh page, and the freed-page cleanup at commit would then
        // wipe the reincarnation's contents.
        frees_.push_back(pid);
    }
    views_.erase(pid);
}

void
BufferedTransaction::deferReclaim(PageId pid, const page::RecordRef &ref)
{
    // Volatile copies may reclaim immediately: commit persists the
    // result, rollback restores the clean snapshot.
    page::PageIO &view = page(pid, /*for_write=*/true);
    page::reclaimExtent(view, ref);
}

void
BufferedTransaction::rollback()
{
    if (finished_)
        return;
    engine_.txMutex_.assertHeld(); // taken by the constructor
    for (PageId pid : engine_.cache_.dirtyPages())
        engine_.cache_.rollbackPage(pid);
    engine_.cache_.unpinAll();
    views_.clear();
    allocs_.clear();
    frees_.clear();
    finished_ = true;
    engine_.device_.txEnd(/*committed=*/false);
    if (auto *fr = engine_.recorder()) {
        fr->append(obs::FlightEventType::Abort,
                   engine_.recorderEngineCode(), id_, 0, 0);
    }
    engine_.stats_.txRolledBack++;
    obs::spanEnd(/*committed=*/false, nullptr);
    // fasp-analyze: allow(bare-mutex-lock) -- early release of the RAII
    // transaction lock; the unique_lock destructor stays the backstop.
    txLock_.unlock();
}

Status
BufferedTransaction::commit()
{
    FASP_ASSERT(!finished_);
    engine_.txMutex_.assertHeld(); // taken by the constructor

    // Deferred frees: release the allocator bits now (cached bitmap
    // pages join the dirty set) and restore the freed pages' contents
    // to their clean snapshots so they drop out of the dirty set.
    for (PageId pid : frees_) {
        engine_.allocator_.free(pid);
        if (engine_.cache_.find(pid))
            engine_.cache_.rollbackPage(pid);
    }

    std::vector<PageId> dirty = engine_.cache_.dirtyPages();
    if (!dirty.empty()) {
        Status status = engine_.persistCommit(id_, dirty);
        if (!status.isOk())
            return status;
        PhaseScope phase(Component::CommitMisc);
        for (PageId pid : dirty)
            engine_.cache_.commitPage(pid);
    }
    for (PageId pid : frees_)
        engine_.cache_.drop(pid);
    engine_.cache_.unpinAll();
    views_.clear();
    allocs_.clear();
    frees_.clear();
    finished_ = true;
    engine_.device_.txEnd(/*committed=*/true);
    if (auto *fr = engine_.recorder()) {
        // aux = 2: the buffered baselines always commit through their
        // log/journal (mirrors FaspTransaction's path encoding).
        std::uint64_t path_code = dirty.empty() ? 0 : 2;
        fr->append(obs::FlightEventType::CommitPoint,
                   engine_.recorderEngineCode(), id_, 0, path_code);
    }
    engine_.stats_.txCommitted++;
    engine_.stats_.logCommits++;
    obs::spanEnd(/*committed=*/true, dirty.empty() ? "read-only"
                                                   : "logged");
    // fasp-analyze: allow(bare-mutex-lock) -- early release of the RAII
    // transaction lock; the unique_lock destructor stays the backstop.
    txLock_.unlock();
    return Status::ok();
}

// --- NvwalEngine -------------------------------------------------------------

NvwalEngine::NvwalEngine(pm::PmDevice &device, const EngineConfig &cfg,
                         const pager::Superblock &sb)
    : BufferedEngine(device, cfg, sb), nvwal_(device, sb)
{}

Status
NvwalEngine::initFresh()
{
    nvwal_.format();
    return Status::ok();
}

Status
NvwalEngine::recover(wal::RecoveryBreakdown &breakdown)
{
    PhaseScope phase(Component::Recovery);
    MutexLock lk(&txMutex_); // quiescent, but keeps the guard provable
    cache_.clear();
    FASP_RETURN_IF_ERROR(nvwal_.recover(&breakdown));
    // Resume txids above anything in the surviving WAL so a stale
    // uncommitted frame can never pair with a fresh commit mark.
    txCounter_ = std::max(txCounter_.load(), nvwal_.lastTxid());
    return Status::ok();
}

void
NvwalEngine::fetchDurable(PageId pid, std::vector<std::uint8_t> &out)
{
    nvwal_.fetchPage(pid, out);
}

Status
NvwalEngine::persistCommit(TxId txid, const std::vector<PageId> &dirty)
{
    std::vector<wal::NvwalDirtyPage> pages;
    pages.reserve(dirty.size());
    for (PageId pid : dirty) {
        wal::CachedPage *cached = cache_.find(pid);
        FASP_ASSERT(cached != nullptr);
        pages.push_back(wal::NvwalDirtyPage{pid, cached->data.data(),
                                            cached->clean.data()});
    }
    FASP_RETURN_IF_ERROR(nvwal_.commitTx(
        txid, std::span<const wal::NvwalDirtyPage>(pages)));

    // Lazy checkpointing (outside the per-query commit path in the
    // paper's measurements, but it must still happen).
    if (nvwal_.needsCheckpoint())
        return nvwal_.checkpoint();
    return Status::ok();
}

// --- JournalEngine -----------------------------------------------------------

JournalEngine::JournalEngine(pm::PmDevice &device,
                             const EngineConfig &cfg,
                             const pager::Superblock &sb)
    : BufferedEngine(device, cfg, sb), journal_(device, sb)
{}

Status
JournalEngine::initFresh()
{
    journal_.format();
    return Status::ok();
}

Status
JournalEngine::recover(wal::RecoveryBreakdown &breakdown)
{
    PhaseScope phase(Component::Recovery);
    MutexLock lk(&txMutex_); // quiescent, but keeps the guard provable
    cache_.clear();
    auto rolled_back = journal_.recover(&breakdown);
    if (!rolled_back.isOk())
        return rolled_back.status();
    return Status::ok();
}

void
JournalEngine::fetchDurable(PageId pid, std::vector<std::uint8_t> &out)
{
    out.resize(sb_.pageSize);
    device_.read(sb_.pageOffset(pid), out.data(), out.size());
}

Status
JournalEngine::persistCommit(TxId txid, const std::vector<PageId> &dirty)
{
    (void)txid;
    // Figure 1a: journal the originals, seal ("fsync for journal"),
    // overwrite the database in place, then invalidate the journal.
    {
        PhaseScope phase(Component::LogFlush);
        journal_.begin();
        for (PageId pid : dirty)
            FASP_RETURN_IF_ERROR(journal_.journalPage(pid));
        FASP_RETURN_IF_ERROR(journal_.seal());
    }
    {
        PhaseScope phase(Component::Checkpoint);
        pm::SiteScope site(device_, "JournalEngine::persistCommit");
        for (PageId pid : dirty) {
            wal::CachedPage *cached = cache_.find(pid);
            FASP_ASSERT(cached != nullptr);
            PmOffset off = sb_.pageOffset(pid);
            device_.write(off, cached->data.data(),
                          cached->data.size());
            device_.flushRange(off, cached->data.size());
        }
        device_.sfence();
    }
    {
        PhaseScope phase(Component::LogFlush);
        journal_.invalidate();
    }
    return Status::ok();
}

// --- LegacyWalEngine ---------------------------------------------------------

LegacyWalEngine::LegacyWalEngine(pm::PmDevice &device,
                                 const EngineConfig &cfg,
                                 const pager::Superblock &sb)
    : BufferedEngine(device, cfg, sb), wal_(device, sb)
{}

Status
LegacyWalEngine::initFresh()
{
    wal_.format();
    return Status::ok();
}

Status
LegacyWalEngine::recover(wal::RecoveryBreakdown &breakdown)
{
    PhaseScope phase(Component::Recovery);
    MutexLock lk(&txMutex_); // quiescent, but keeps the guard provable
    cache_.clear();
    FASP_RETURN_IF_ERROR(wal_.recover(&breakdown));
    txCounter_ = std::max(txCounter_.load(), wal_.lastTxid());
    return Status::ok();
}

void
LegacyWalEngine::fetchDurable(PageId pid, std::vector<std::uint8_t> &out)
{
    wal_.fetchPage(pid, out);
}

Status
LegacyWalEngine::persistCommit(TxId txid,
                               const std::vector<PageId> &dirty)
{
    {
        PhaseScope phase(Component::LogFlush);
        std::vector<wal::WalDirtyPage> pages;
        pages.reserve(dirty.size());
        for (PageId pid : dirty) {
            wal::CachedPage *cached = cache_.find(pid);
            FASP_ASSERT(cached != nullptr);
            pages.push_back(
                wal::WalDirtyPage{pid, cached->data.data()});
        }
        FASP_RETURN_IF_ERROR(wal_.commitTx(
            txid, std::span<const wal::WalDirtyPage>(pages)));
    }
    if (wal_.needsCheckpoint()) {
        PhaseScope phase(Component::Checkpoint);
        return wal_.checkpoint();
    }
    return Status::ok();
}

} // namespace fasp::core
