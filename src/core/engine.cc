#include "core/engine.h"

#include <chrono>

#include "common/logging.h"
#include "core/buffered_engine.h"
#include "core/fasp_engine.h"
#include "obs/metrics.h"
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

const EngineStats
Engine::stats() const
{
    const auto n = stats_.sum();
    return {.txBegun = n[kTxBegun],
            .txCommitted = n[kTxCommitted],
            .txRolledBack = n[kTxRolledBack],
            .inPlaceCommits = n[kInPlaceCommits],
            .logCommits = n[kLogCommits],
            .pcasFallbacks = n[kPcasFallbacks]};
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

    auto ns_since = [](std::chrono::steady_clock::time_point t0) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0).count());
    };

    // Re-attach the recorder before recovery runs: the attach scan
    // repairs torn ring slots (part of the torn-record-repair phase)
    // and the RecoveryBegin/End markers bracket the pass in the
    // persistent timeline.
    wal::RecoveryBreakdown breakdown;
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
        breakdown.repairNs += ns_since(attach_started);
        if (fr != nullptr) {
            fr->append(obs::FlightEventType::RecoveryBegin,
                       engine->recorderEngineCode(), 0, 0, 0);
        }
    }

    auto started = std::chrono::steady_clock::now();
    Status status = engine->recover(breakdown);
    if (!status.isOk())
        return status;
    std::uint64_t elapsed = ns_since(started);
    if (fr != nullptr) {
        fr->append(obs::FlightEventType::RecoveryEnd,
                   engine->recorderEngineCode(), 0, 0, elapsed);
    }

    // Recovery is cold and fig12's recovery bench wants the numbers
    // without --metrics, so the ledger fold is unconditional.
    obs::RecoveryLedger::Sample sample;
    sample.phaseNs = {breakdown.scanNs, breakdown.replayNs,
                      breakdown.discardNs, breakdown.repairNs};
    sample.pagesScanned = breakdown.pagesScanned;
    sample.recordsReplayed = breakdown.recordsReplayed;
    sample.recordsDiscarded = breakdown.recordsDiscarded;
    sample.tornRecords = breakdown.tornRecords;
    obs::RecoveryLedger::global().record(engineKindName(cfg.kind),
                                         sample);
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
    tx->rollback();
    return status;
}

Status
Engine::scan(btree::BTree &tree, std::uint64_t lo, std::uint64_t hi,
             const std::function<bool(std::uint64_t,
                                      std::span<const std::uint8_t>)> &fn)
{
    auto tx = begin();
    Status status = tree.scan(tx->pageIO(), lo, hi, fn);
    tx->rollback();
    return status;
}

} // namespace fasp::core
