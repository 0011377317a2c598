#include "wal/legacy_wal.h"

#include <algorithm>
#include <chrono>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "pm/device.h"

namespace fasp::wal {

namespace {
/** Log-header magic ("LWALLOG1"). */
constexpr std::uint64_t kWalMagic = 0x4c57414c4c4f4731ull;
} // namespace

LegacyWal::LegacyWal(pm::PmDevice &device, const pager::Superblock &sb)
    : device_(device), sb_(sb), region_(sb.logRegion()),
      writeOff_(logStart())
{}

void
LegacyWal::writeLogHeader()
{
    pm::SiteScope site(device_, "LegacyWal::writeLogHeader");
    std::uint8_t header[20];
    storeU64(header, kWalMagic);
    storeU64(header + 8, epoch_);
    storeU32(header + 16, crc32c(header, 16));
    device_.write(region_.off, header, sizeof(header));
    device_.flushRange(region_.off, sizeof(header));
    device_.sfence();
}

void
LegacyWal::ensureAttached()
{
    if (epoch_ != 0)
        return;
    std::uint8_t header[20];
    device_.read(region_.off, header, sizeof(header));
    if (loadU64(header) == kWalMagic &&
        loadU32(header + 16) == crc32c(header, 16)) {
        epoch_ = loadU64(header + 8);
        return;
    }
    epoch_ = 1;
    writeLogHeader();
}

void
LegacyWal::format()
{
    epoch_ = 1;
    writeLogHeader();
    truncate();
}

void
LegacyWal::truncate()
{
    pm::SiteScope site(device_, "LegacyWal::truncate");
    ensureAttached();
    // Epoch bump first: stale frames can no longer be replayed even if
    // the End marker write is later overwritten and torn.
    epoch_++;
    writeLogHeader();
    std::uint8_t head[kFrameHeaderBytes] = {};
    device_.write(logStart(), head, sizeof(head));
    device_.flushRange(logStart(), sizeof(head));
    device_.sfence();
    writeOff_ = logStart();
    index_.clear();
}

Status
LegacyWal::commitTx(TxId txid, std::span<const WalDirtyPage> pages)
{
    pm::SiteScope site(device_, "LegacyWal::commitTx");
    ensureAttached();
    device_.txBegin();
    // Frames for every dirty page...
    std::vector<std::pair<PageId, PmOffset>> appended;
    for (const WalDirtyPage &page : pages) {
        if (writeOff_ + dataFrameBytes() + kFrameHeaderBytes >
            region_.end()) {
            return Status(StatusCode::LogFull, "legacy WAL full");
        }
        std::uint8_t head[kFrameHeaderBytes] = {};
        storeU32(head, kKindData);
        storeU32(head + 4, page.pid);
        storeU64(head + 8, txid);
        storeU64(head + 16, epoch_);
        storeU32(head + 24, nextSeq_++);
        std::uint32_t crc = crc32c(head, 28);
        crc = crc32c(page.data, sb_.pageSize, crc);
        storeU32(head + 28, crc);
        device_.write(writeOff_, head, sizeof(head));
        device_.write(writeOff_ + kFrameHeaderBytes, page.data,
                      sb_.pageSize);
        device_.flushRange(writeOff_, dataFrameBytes());
        appended.emplace_back(page.pid, writeOff_);
        writeOff_ += dataFrameBytes();
    }
    device_.sfence();

    // Every data frame must be fenced before the commit frame makes
    // the transaction visible to recovery.
    device_.txCommitPoint();

    // ...then the commit frame.
    std::uint8_t commit[kFrameHeaderBytes] = {};
    storeU32(commit, kKindCommit);
    storeU64(commit + 8, txid);
    storeU64(commit + 16, epoch_);
    storeU32(commit + 24, nextSeq_++);
    storeU32(commit + 28, crc32c(commit, 28));
    device_.write(writeOff_, commit, sizeof(commit));
    device_.flushRange(writeOff_, sizeof(commit));
    device_.sfence();
    writeOff_ += kFrameHeaderBytes;

    device_.txEnd(/*committed=*/true);
    for (const auto &[pid, off] : appended)
        index_[pid] = off;
    return Status::ok();
}

void
LegacyWal::fetchPage(PageId pid, std::vector<std::uint8_t> &out)
{
    out.resize(sb_.pageSize);
    auto it = index_.find(pid);
    if (it != index_.end()) {
        device_.read(it->second + kFrameHeaderBytes, out.data(),
                     out.size());
        return;
    }
    device_.read(sb_.pageOffset(pid), out.data(), out.size());
}

bool
LegacyWal::needsCheckpoint() const
{
    return static_cast<double>(bytesUsed()) >
           0.75 * static_cast<double>(region_.len - 64);
}

Status
LegacyWal::checkpoint()
{
    pm::SiteScope site(device_, "LegacyWal::checkpoint");
    std::vector<PageId> pids;
    pids.reserve(index_.size());
    for (const auto &[pid, off] : index_)
        pids.push_back(pid);
    std::sort(pids.begin(), pids.end());

    std::vector<std::uint8_t> page;
    for (PageId pid : pids) {
        fetchPage(pid, page);
        PmOffset off = sb_.pageOffset(pid);
        device_.write(off, page.data(), page.size());
        device_.flushRange(off, page.size());
    }
    device_.sfence();
    truncate();
    return Status::ok();
}

Status
LegacyWal::recover(obs::RecoveryBreakdown *breakdown)
{
    pm::SiteScope site(device_, "LegacyWal::recover");
    obs::RecoveryBreakdown local;
    obs::RecoveryBreakdown &bd = breakdown != nullptr ? *breakdown : local;
    auto scan_started = std::chrono::steady_clock::now();
    ensureAttached();
    index_.clear();
    lastTxid_ = 0;
    struct RawFrame
    {
        PageId pid;
        TxId txid;
        std::uint32_t seq;
        PmOffset off;
    };
    std::vector<RawFrame> frames;
    std::unordered_map<TxId, bool> committed;

    PmOffset cursor = logStart();
    std::uint32_t max_seq = 0;
    std::vector<std::uint8_t> page(sb_.pageSize);
    while (cursor + kFrameHeaderBytes <= region_.end()) {
        std::uint8_t head[kFrameHeaderBytes];
        device_.read(cursor, head, sizeof(head));
        std::uint32_t kind = loadU32(head);
        if (kind == kKindEnd)
            break;
        if (kind != kKindData && kind != kKindCommit)
            break;
        if (loadU64(head + 16) != epoch_)
            break; // stale frame from before the last truncation

        std::uint32_t crc = crc32c(head, 28);
        if (kind == kKindData) {
            if (cursor + dataFrameBytes() > region_.end())
                break;
            device_.read(cursor + kFrameHeaderBytes, page.data(),
                         page.size());
            crc = crc32c(page.data(), page.size(), crc);
        }
        if (crc != loadU32(head + 28)) {
            bd.tornRecords++;
            break; // torn tail
        }
        bd.pagesScanned++;

        RawFrame raw;
        raw.pid = loadU32(head + 4);
        raw.txid = loadU64(head + 8);
        raw.seq = loadU32(head + 24);
        raw.off = cursor;
        max_seq = std::max(max_seq, raw.seq);
        lastTxid_ = std::max(lastTxid_, raw.txid);

        if (kind == kKindCommit) {
            committed[raw.txid] = true;
            cursor += kFrameHeaderBytes;
        } else {
            frames.push_back(raw);
            cursor += dataFrameBytes();
        }
    }
    writeOff_ = cursor;
    nextSeq_ = max_seq + 1;
    bd.scanNs += obs::nsSince(scan_started);

    auto replay_started = std::chrono::steady_clock::now();
    std::sort(frames.begin(), frames.end(),
              [](const RawFrame &a, const RawFrame &b) {
                  return a.seq < b.seq;
              });
    for (const RawFrame &raw : frames) {
        if (committed.count(raw.txid)) {
            index_[raw.pid] = raw.off;
            bd.recordsReplayed++;
        } else {
            bd.recordsDiscarded++;
        }
    }
    bd.replayNs += obs::nsSince(replay_started);
    return Status::ok();
}

} // namespace fasp::wal
