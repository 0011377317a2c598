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
    : EngineTransaction(engine, id, &engine.txMutex_), engine_(engine)
{}

BufferedTransaction::~BufferedTransaction()
{
    rollback();
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
BufferedTransaction::allocate()
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
    return pid;
}

void
BufferedTransaction::dropPage(PageId pid, bool reusable)
{
    engine_.txMutex_.assertHeld(); // taken by the constructor
    if (reusable) {
        engine_.allocator_.free(pid);
        engine_.cache_.rollbackPage(pid); // discard scribbles
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
BufferedTransaction::discard()
{
    engine_.txMutex_.assertHeld(); // taken by the constructor
    for (PageId pid : engine_.cache_.dirtyPages())
        engine_.cache_.rollbackPage(pid);
    engine_.cache_.unpinAll();
    views_.clear();
}

Result<CommitPath>
BufferedTransaction::persist()
{
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
    // The buffered baselines always commit through their log/journal.
    return dirty.empty() ? CommitPath::ReadOnly : CommitPath::Logged;
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
NvwalEngine::recover(obs::RecoveryBreakdown &breakdown)
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
JournalEngine::recover(obs::RecoveryBreakdown &breakdown)
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
LegacyWalEngine::recover(obs::RecoveryBreakdown &breakdown)
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
