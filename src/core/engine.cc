#include "core/engine.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "core/buffered_engine.h"
#include "core/fasp_engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pm/device.h"

namespace fasp::core {

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Fast: return "FAST";
      case EngineKind::Fash: return "FASH";
      case EngineKind::Nvwal: return "NVWAL";
      case EngineKind::LegacyWal: return "WAL";
      case EngineKind::Journal: return "JOURNAL";
    }
    return "?";
}

namespace {

/** The span profiler's name for @p path. */
const char *
commitPathName(CommitPath path)
{
    switch (path) {
      case CommitPath::ReadOnly: return "read-only";
      case CommitPath::InPlace: return "in-place";
      case CommitPath::Logged: return "logged";
    }
    return "?";
}

} // namespace

// --- EngineTransaction -------------------------------------------------------

EngineTransaction::EngineTransaction(Engine &engine, TxId id, Mutex *serial)
    : Transaction(id), engine_(engine)
{
    engine_.stats_.add(Engine::kTxBegun);
    if (serial != nullptr)
        serial_ = std::unique_lock<Mutex>(*serial);
    engine_.device_.txBegin();
    // The op-begin record is durable before any of this transaction's
    // own persistence, so post-crash forensics can always name the
    // in-flight operation (or prove there was none).
    record(obs::FlightEventType::OpBegin, 0, 0);
    obs::spanBegin(engineKindName(engine_.config_.kind),
                   engine_.recorderEngineCode(), id);
}

std::size_t
EngineTransaction::pageSize() const
{
    return engine_.sb_.pageSize;
}

PageId
EngineTransaction::directoryPid() const
{
    return engine_.sb_.directoryPid;
}

void
EngineTransaction::record(obs::FlightEventType type, PageId pid,
                          std::uint64_t aux)
{
    if (auto *fr = engine_.flightRecorder())
        fr->append(type, engine_.recorderEngineCode(), id_, pid, aux);
}

Result<PageId>
EngineTransaction::allocPage()
{
    Result<PageId> pid = allocate();
    if (!pid.isOk())
        return pid;
    allocs_.push_back(*pid);
    engine_.stats_.add(Engine::kPageAllocs);
    // A page allocated while defragmenting is the copy target;
    // anything else is tree growth (a split or a new root/leaf).
    bool defrag = pm::currentThreadComponent() == pm::Component::Defrag;
    record(defrag ? obs::FlightEventType::Defrag
                  : obs::FlightEventType::PageSplit,
           *pid, 0);
    if (defrag)
        obs::spanDefrag();
    else
        obs::spanSplit();
    return pid;
}

void
EngineTransaction::freePage(PageId pid)
{
    auto it = std::find(allocs_.begin(), allocs_.end(), pid);
    bool reusable = it != allocs_.end();
    if (reusable) {
        // Allocated and freed within this transaction: it never became
        // reachable, so it may be recycled immediately.
        allocs_.erase(it);
    } else {
        // A live page must stay unavailable until commit: if this same
        // transaction recycled it as a fresh page, FAST would overwrite
        // its pre-commit (recovery) image in place and the buffered
        // commit's freed-page cleanup would wipe the new contents.
        frees_.push_back(pid);
    }
    engine_.stats_.add(Engine::kPageFrees);
    dropPage(pid, reusable);
}

void
EngineTransaction::closeWriteSet(bool committed)
{
    if (!writeSetOpen_)
        return;
    writeSetOpen_ = false;
    engine_.device_.txEnd(committed);
}

Status
EngineTransaction::commit()
{
    FASP_ASSERT(!finished_);
    Result<CommitPath> path = persist();
    if (!path.isOk())
        return path.status();
    end(/*committed=*/true, *path);
    return Status::ok();
}

void
EngineTransaction::rollback()
{
    if (finished_)
        return;
    discard();
    end(/*committed=*/false, CommitPath::ReadOnly);
}

void
EngineTransaction::end(bool committed, CommitPath path)
{
    allocs_.clear();
    frees_.clear();
    finished_ = true;
    // Close the checker's write set before dropping exclusion, so no
    // foreign store can land in it mid-check.
    closeWriteSet(committed);
    if (committed) {
        record(obs::FlightEventType::CommitPoint, 0,
               static_cast<std::uint64_t>(path));
        engine_.stats_.add(Engine::kTxCommitted);
        if (path == CommitPath::InPlace)
            engine_.stats_.add(Engine::kInPlaceCommits);
        else if (path == CommitPath::Logged)
            engine_.stats_.add(Engine::kLogCommits);
    } else {
        record(obs::FlightEventType::Abort, 0, 0);
        engine_.stats_.add(Engine::kTxRolledBack);
    }
    releaseLatches();
    obs::spanEnd(committed, committed ? commitPathName(path) : nullptr);
    if (serial_.owns_lock()) {
        // fasp-analyze: allow(bare-mutex-lock) -- early release of the
        // RAII transaction lock; its destructor stays the backstop.
        serial_.unlock();
    }
}

const EngineStats
Engine::stats() const
{
    const auto n = stats_.sum();
    return {.txBegun = n[kTxBegun],
            .txCommitted = n[kTxCommitted],
            .txRolledBack = n[kTxRolledBack],
            .inPlaceCommits = n[kInPlaceCommits],
            .logCommits = n[kLogCommits],
            .pcasFallbacks = n[kPcasFallbacks],
            .pageAllocs = n[kPageAllocs],
            .pageFrees = n[kPageFrees]};
}

Result<std::unique_ptr<Engine>>
Engine::create(pm::PmDevice &device, const EngineConfig &cfg,
               bool format)
{
    pager::Superblock sb;
    if (format) {
        auto formatted = pager::Pager::format(device, cfg.format);
        if (!formatted.isOk())
            return formatted.status();
        sb = *formatted;
    } else {
        auto opened = pager::Pager::open(device);
        if (!opened.isOk())
            return opened.status();
        sb = *opened;
    }

    std::unique_ptr<Engine> engine;
    switch (cfg.kind) {
      case EngineKind::Fast:
      case EngineKind::Fash:
        engine = std::make_unique<FaspEngine>(device, cfg, sb);
        break;
      case EngineKind::Nvwal:
        engine = std::make_unique<NvwalEngine>(device, cfg, sb);
        break;
      case EngineKind::LegacyWal:
        engine = std::make_unique<LegacyWalEngine>(device, cfg, sb);
        break;
      case EngineKind::Journal:
        engine = std::make_unique<JournalEngine>(device, cfg, sb);
        break;
    }
    FASP_ASSERT(engine != nullptr);

    // Persistent flight recorder (DESIGN.md §12): only when the image
    // carries a recorder region large enough for a ring AND the global
    // gate is on — transactions null-check the pointer per event, so
    // the recorder-off path costs one load and a branch.
    if (sb.frLen != 0 && obs::FlightRecorder::enabled()) {
        auto fr = std::make_unique<obs::FlightRecorder>(
            device, sb.frOff, sb.frLen);
        if (fr->capacity() != 0)
            engine->flightRecorder_ = std::move(fr);
    }

    if (format) {
        // Pager::format just initialized the ring; the sequence
        // counter starts at 1, no attach scan needed.
        Status status = engine->initFresh();
        if (!status.isOk())
            return status;
        return engine;
    }

    // Re-attach the recorder before recovery runs: the attach scan
    // repairs torn ring slots (part of the torn-record-repair phase)
    // and the RecoveryBegin/End markers bracket the pass in the
    // persistent timeline.
    obs::RecoveryBreakdown breakdown;
    obs::FlightRecorder *fr = engine->flightRecorder_.get();
    if (fr != nullptr) {
        auto attach_started = std::chrono::steady_clock::now();
        auto attached = fr->attach();
        if (attached.isOk()) {
            breakdown.tornRecords += attached->tornRecords;
        } else {
            // Undecodable ring (e.g. an image formatted with the
            // recorder disabled): run without it.
            engine->flightRecorder_.reset();
            fr = nullptr;
        }
        breakdown.repairNs += obs::nsSince(attach_started);
        if (fr != nullptr) {
            fr->append(obs::FlightEventType::RecoveryBegin,
                       engine->recorderEngineCode(), 0, 0, 0);
        }
    }

    auto started = std::chrono::steady_clock::now();
    Status status = engine->recover(breakdown);
    if (!status.isOk())
        return status;
    std::uint64_t elapsed = obs::nsSince(started);
    if (fr != nullptr) {
        fr->append(obs::FlightEventType::RecoveryEnd,
                   engine->recorderEngineCode(), 0, 0, elapsed);
    }

    // Recovery is cold and fig12's recovery bench wants the numbers
    // without --metrics, so the ledger fold is unconditional.
    obs::RecoveryLedger::global().record(engineKindName(cfg.kind),
                                         breakdown);
    return engine;
}

Result<btree::BTree>
Engine::createTree(TreeId id)
{
    auto tx = begin();
    auto tree = btree::BTree::create(tx->pageIO(), id);
    if (!tree.isOk()) {
        tx->rollback();
        return tree;
    }
    Status status = tx->commit();
    if (!status.isOk())
        return status;
    return tree;
}

Status
Engine::insert(btree::BTree &tree, std::uint64_t key,
               std::span<const std::uint8_t> value)
{
    auto tx = begin();
    Status status = tree.insert(tx->pageIO(), key, value);
    if (!status.isOk()) {
        tx->rollback();
        return status;
    }
    return tx->commit();
}

Status
Engine::update(btree::BTree &tree, std::uint64_t key,
               std::span<const std::uint8_t> value)
{
    auto tx = begin();
    Status status = tree.update(tx->pageIO(), key, value);
    if (!status.isOk()) {
        tx->rollback();
        return status;
    }
    return tx->commit();
}

Status
Engine::erase(btree::BTree &tree, std::uint64_t key)
{
    auto tx = begin();
    Status status = tree.erase(tx->pageIO(), key);
    if (!status.isOk()) {
        tx->rollback();
        return status;
    }
    return tx->commit();
}

Status
Engine::get(btree::BTree &tree, std::uint64_t key,
            std::vector<std::uint8_t> &value)
{
    auto tx = begin();
    Status status = tree.get(tx->pageIO(), key, value);
    Status committed = tx->commit();
    return status.isOk() ? committed : status;
}

Status
Engine::scan(btree::BTree &tree, std::uint64_t lo, std::uint64_t hi,
             const std::function<bool(std::uint64_t,
                                      std::span<const std::uint8_t>)> &fn)
{
    auto tx = begin();
    Status status = tree.scan(tx->pageIO(), lo, hi, fn);
    Status committed = tx->commit();
    return status.isOk() ? committed : status;
}

} // namespace fasp::core
