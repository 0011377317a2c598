#include "wal/slot_header_log.h"

#include <algorithm>
#include <chrono>

#include "common/crc32.h"
#include "common/logging.h"
#include "pager/pager.h"
#include "pm/device.h"

namespace fasp::wal {

namespace {
/** Log-header magic ("FSHLOG01"). */
constexpr std::uint64_t kLogMagic = 0x4653484c4f473031ull;
} // namespace

SlotHeaderLog::SlotHeaderLog(pm::PmDevice &device,
                             const pager::Superblock &sb)
    : device_(device), sb_(sb), region_(sb.logRegion()),
      writeOff_(entryStart()), runningCrc_(0)
{
    FASP_ASSERT(region_.len >= 4096);
}

void
SlotHeaderLog::writeLogHeader()
{
    pm::SiteScope site(device_, "SlotHeaderLog::writeLogHeader");
    std::uint8_t header[20];
    storeU64(header, kLogMagic);
    storeU64(header + 8, epoch_);
    storeU32(header + 16, crc32c(header, 16));
    device_.write(region_.off, header, sizeof(header));
    device_.flushRange(region_.off, sizeof(header));
    device_.sfence();
}

void
SlotHeaderLog::ensureAttached()
{
    if (epoch_ != 0)
        return;
    std::uint8_t header[20];
    device_.read(region_.off, header, sizeof(header));
    if (loadU64(header) == kLogMagic &&
        loadU32(header + 16) == crc32c(header, 16)) {
        epoch_ = loadU64(header + 8);
        return;
    }
    // Fresh (or pre-epoch) log: initialize.
    epoch_ = 1;
    writeLogHeader();
}

void
SlotHeaderLog::begin()
{
    ensureAttached();
    device_.txBegin();
    writeOff_ = entryStart();
    runningCrc_ = 0;
    pending_.clear();
}

Status
SlotHeaderLog::appendRaw(EntryType type,
                         std::span<const std::uint8_t> body)
{
    std::size_t entry_len = 4 + body.size();
    if (writeOff_ + entry_len + kCommitEntryBytes > region_.end())
        return Status(StatusCode::LogFull, "slot-header log full");

    std::uint8_t head[4];
    storeU16(head, type);
    storeU16(head + 2, static_cast<std::uint16_t>(body.size()));
    device_.write(writeOff_, head, 4);
    if (!body.empty())
        device_.write(writeOff_ + 4, body.data(), body.size());

    runningCrc_ = crc32c(head, 4, runningCrc_);
    if (!body.empty())
        runningCrc_ = crc32c(body.data(), body.size(), runningCrc_);

    writeOff_ += entry_len;
    return Status::ok();
}

Status
SlotHeaderLog::appendPageHeader(PageId pid,
                                std::span<const std::uint8_t> header)
{
    FASP_ASSERT(header.size() >= 12 && header.size() <= sb_.pageSize);
    std::vector<std::uint8_t> body(6 + header.size());
    storeU32(body.data(), pid);
    storeU16(body.data() + 4,
             static_cast<std::uint16_t>(header.size()));
    std::copy(header.begin(), header.end(), body.begin() + 6);
    FASP_RETURN_IF_ERROR(
        appendRaw(kPageHeader, std::span<const std::uint8_t>(body)));

    PendingEntry entry;
    entry.type = kPageHeader;
    entry.pid = pid;
    entry.header.assign(header.begin(), header.end());
    pending_.push_back(std::move(entry));
    return Status::ok();
}

Status
SlotHeaderLog::appendPageAlloc(PageId pid)
{
    std::uint8_t body[4];
    storeU32(body, pid);
    FASP_RETURN_IF_ERROR(
        appendRaw(kPageAlloc, std::span<const std::uint8_t>(body, 4)));
    pending_.push_back(PendingEntry{kPageAlloc, pid, {}});
    return Status::ok();
}

Status
SlotHeaderLog::appendPageFree(PageId pid)
{
    std::uint8_t body[4];
    storeU32(body, pid);
    FASP_RETURN_IF_ERROR(
        appendRaw(kPageFree, std::span<const std::uint8_t>(body, 4)));
    pending_.push_back(PendingEntry{kPageFree, pid, {}});
    return Status::ok();
}

Status
SlotHeaderLog::commit(TxId txid)
{
    pm::SiteScope site(device_, "SlotHeaderLog::commit");

    // (1) Flush every entry line; ordering among them is free.
    device_.flushRange(entryStart(), writeOff_ - entryStart());
    device_.sfence();

    // Everything the transaction logged (and the pages it pre-flushed)
    // must be ordered before the commit mark below.
    device_.txCommitPoint();

    // (2) The commit mark: only after it is durable is the transaction
    // committed (paper §4.4). It embeds the current epoch so a stale
    // mark from before the last truncation can never be replayed.
    std::uint8_t body[20];
    storeU64(body, txid);
    storeU64(body + 8, epoch_);
    storeU32(body + 16, runningCrc_);
    PmOffset commit_off = writeOff_;
    FASP_RETURN_IF_ERROR(
        appendRaw(kCommit, std::span<const std::uint8_t>(body, 20)));
    device_.flushRange(commit_off, writeOff_ - commit_off);
    device_.sfence();
    return Status::ok();
}

void
SlotHeaderLog::applyEntry(const PendingEntry &entry,
                          std::vector<std::uint32_t> &bitmap_bytes)
{
    switch (entry.type) {
      case kPageHeader: {
        PmOffset page_off = sb_.pageOffset(entry.pid);
        device_.write(page_off, entry.header.data(),
                      entry.header.size());
        device_.flushRange(page_off, entry.header.size());
        break;
      }
      case kPageAlloc:
      case kPageFree: {
        pager::BitmapSlot slot = pager::bitmapSlot(entry.pid);
        PmOffset byte_off =
            pager::Pager::bitmapByteOffset(sb_, slot.byteIndex);
        std::uint8_t byte = 0;
        device_.read(byte_off, &byte, 1);
        if (entry.type == kPageAlloc)
            byte = static_cast<std::uint8_t>(byte | slot.mask);
        else
            byte = static_cast<std::uint8_t>(byte & ~slot.mask);
        device_.write(byte_off, &byte, 1);
        bitmap_bytes.push_back(slot.byteIndex);
        break;
      }
      default:
        faspPanic("applyEntry: unexpected entry type %d", entry.type);
    }
}

Status
SlotHeaderLog::checkpointAndTruncate()
{
    pm::SiteScope site(device_, "SlotHeaderLog::checkpointAndTruncate");
    std::vector<std::uint32_t> bitmap_bytes;
    for (const PendingEntry &entry : pending_)
        applyEntry(entry, bitmap_bytes);

    // Flush touched bitmap lines (deduplicated by line).
    std::sort(bitmap_bytes.begin(), bitmap_bytes.end());
    PmOffset last_line = ~PmOffset{0};
    for (std::uint32_t index : bitmap_bytes) {
        PmOffset off = pager::Pager::bitmapByteOffset(sb_, index);
        PmOffset line = cacheLineBase(off);
        if (line != last_line) {
            device_.clflush(off);
            last_line = line;
        }
    }
    device_.sfence();

    truncate();
    device_.txEnd(/*committed=*/true);
    pending_.clear();
    begin();
    return Status::ok();
}

void
SlotHeaderLog::truncate()
{
    // The durable epoch bump IS the truncation: any commit mark still
    // in the log now carries a stale epoch and can never replay. No
    // End marker is needed (recovery's scan stops at the stale commit
    // mark or at malformed bytes), which saves a flush + fence on
    // every single commit's eager checkpoint.
    epoch_++;
    writeLogHeader();
}

Result<SlotHeaderRecovery>
SlotHeaderLog::recover(obs::RecoveryBreakdown *breakdown)
{
    pm::SiteScope site(device_, "SlotHeaderLog::recover");
    obs::RecoveryBreakdown local;
    obs::RecoveryBreakdown &bd = breakdown != nullptr ? *breakdown : local;
    auto scan_started = std::chrono::steady_clock::now();

    ensureAttached();
    SlotHeaderRecovery result;
    PmOffset cursor = entryStart();
    std::uint32_t crc = 0;
    std::vector<PendingEntry> batch;

    auto read_u16 = [&](PmOffset off) { return device_.readU16(off); };

    while (cursor + 4 <= region_.end()) {
        std::uint16_t type = read_u16(cursor);
        std::uint16_t len = read_u16(cursor + 2);
        if (type == kEnd)
            break;
        if (type > kCommit || cursor + 4 + len > region_.end())
            break; // garbage tail
        bd.pagesScanned++;

        std::vector<std::uint8_t> body(len);
        if (len > 0)
            device_.read(cursor + 4, body.data(), len);

        if (type == kCommit) {
            if (len != 20)
                break;
            std::uint64_t logged_epoch = loadU64(body.data() + 8);
            std::uint32_t logged_crc = loadU32(body.data() + 16);
            if (logged_epoch != epoch_)
                break; // stale mark from before the last truncation
            if (logged_crc != crc)
                break; // torn commit mark: not committed
            // Replay this committed batch (idempotent).
            bd.scanNs += obs::nsSince(scan_started);
            pending_ = std::move(batch);
            bd.recordsReplayed = pending_.size();
            for (const PendingEntry &entry : pending_) {
                if (entry.type == kPageHeader)
                    result.touchedPages.push_back(entry.pid);
            }
            auto replay_started = std::chrono::steady_clock::now();
            FASP_RETURN_IF_ERROR(checkpointAndTruncate());
            bd.replayNs += obs::nsSince(replay_started);
            result.replayed = true;
            // Eager checkpointing means one tx per log; stop here.
            return result;
        }

        // Accumulate the entry into the running CRC and the batch.
        std::uint8_t head[4];
        storeU16(head, type);
        storeU16(head + 2, len);
        crc = crc32c(head, 4, crc);
        if (len > 0)
            crc = crc32c(body.data(), len, crc);

        // A malformed entry is a torn uncommitted tail (only whole,
        // CRC-validated transactions ever count): stop scanning. The
        // commit-mark CRC covers the raw bytes, so a torn entry can
        // never pair with a valid commit mark.
        PendingEntry entry;
        entry.type = static_cast<EntryType>(type);
        bool malformed = false;
        switch (type) {
          case kPageHeader: {
            if (len < 6) {
                malformed = true;
                break;
            }
            entry.pid = loadU32(body.data());
            std::uint16_t hlen = loadU16(body.data() + 4);
            if (hlen + 6u != len || entry.pid >= sb_.pageCount) {
                malformed = true;
                break;
            }
            entry.header.assign(body.begin() + 6, body.end());
            break;
          }
          case kPageAlloc:
          case kPageFree:
            if (len != 4) {
                malformed = true;
                break;
            }
            entry.pid = loadU32(body.data());
            if (entry.pid >= sb_.pageCount)
                malformed = true;
            break;
        }
        if (malformed)
            break;
        batch.push_back(std::move(entry));
        cursor += 4 + len;
    }

    // No valid commit mark: discard everything (paper §4.4 — the
    // original pages were never altered, so recovery is trivial).
    bd.scanNs += obs::nsSince(scan_started);
    auto discard_started = std::chrono::steady_clock::now();
    if (!batch.empty())
        bd.recordsDiscarded = batch.size();
    truncate();
    begin();
    bd.discardNs += obs::nsSince(discard_started);
    return result;
}

} // namespace fasp::wal
