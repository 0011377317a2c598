#include "wal/journal.h"

#include <chrono>
#include <vector>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "pm/device.h"

namespace fasp::wal {

RollbackJournal::RollbackJournal(pm::PmDevice &device,
                                 const pager::Superblock &sb)
    : device_(device), sb_(sb), region_(sb.logRegion())
{}

PmOffset
RollbackJournal::entryOff(std::uint32_t index) const
{
    return region_.off + 64 +
           static_cast<PmOffset>(index) * (8 + sb_.pageSize);
}

void
RollbackJournal::format()
{
    pm::SiteScope site(device_, "RollbackJournal::format");
    std::uint8_t header[16] = {};
    storeU32(header, kMagic);
    device_.write(region_.off, header, sizeof(header));
    device_.flushRange(region_.off, sizeof(header));
    device_.sfence();
    count_ = 0;
    runningCrc_ = 0;
}

void
RollbackJournal::begin()
{
    device_.txBegin();
    count_ = 0;
    runningCrc_ = 0;
}

Status
RollbackJournal::journalPage(PageId pid)
{
    pm::SiteScope site(device_, "RollbackJournal::journalPage");
    PmOffset off = entryOff(count_);
    if (off + 8 + sb_.pageSize > region_.end())
        return Status(StatusCode::LogFull, "journal full");

    // Copy the *original* durable page.
    std::vector<std::uint8_t> page(sb_.pageSize);
    device_.read(sb_.pageOffset(pid), page.data(), page.size());

    std::uint8_t entry_head[8] = {};
    storeU32(entry_head, pid);
    device_.write(off, entry_head, 8);
    device_.write(off + 8, page.data(), page.size());
    device_.flushRange(off, 8 + page.size());

    runningCrc_ = crc32c(entry_head, 8, runningCrc_);
    runningCrc_ = crc32c(page.data(), page.size(), runningCrc_);
    count_++;
    return Status::ok();
}

Status
RollbackJournal::seal()
{
    pm::SiteScope site(device_, "RollbackJournal::seal");
    std::uint8_t header[16] = {};
    storeU32(header, kMagic);
    storeU32(header + 4, count_);
    storeU32(header + 8, runningCrc_);
    device_.sfence(); // entries before header
    // Every journalled entry must be fenced before the sealed header
    // makes the journal eligible for rollback.
    device_.txCommitPoint();
    device_.write(region_.off, header, sizeof(header));
    device_.flushRange(region_.off, sizeof(header));
    device_.sfence();
    return Status::ok();
}

void
RollbackJournal::invalidate()
{
    pm::SiteScope site(device_, "RollbackJournal::invalidate");
    std::uint8_t header[16] = {};
    storeU32(header, kMagic);
    // The in-place database overwrites must be fenced before the
    // journal is emptied — afterwards there is nothing to roll back.
    device_.txCommitPoint();
    device_.write(region_.off, header, sizeof(header));
    device_.flushRange(region_.off, sizeof(header));
    device_.sfence();
    device_.txEnd(/*committed=*/true);
    count_ = 0;
    runningCrc_ = 0;
}

Result<bool>
RollbackJournal::recover(obs::RecoveryBreakdown *breakdown)
{
    pm::SiteScope site(device_, "RollbackJournal::recover");
    obs::RecoveryBreakdown local;
    obs::RecoveryBreakdown &bd = breakdown != nullptr ? *breakdown : local;
    auto scan_started = std::chrono::steady_clock::now();

    std::uint8_t header[16];
    device_.read(region_.off, header, sizeof(header));
    if (loadU32(header) != kMagic) {
        format();
        bd.scanNs += obs::nsSince(scan_started);
        return false;
    }
    std::uint32_t count = loadU32(header + 4);
    if (count == 0) {
        bd.scanNs += obs::nsSince(scan_started);
        return false;
    }

    // Validate every entry against the sealed CRC.
    std::uint32_t crc = 0;
    std::vector<std::uint8_t> entry(8 + sb_.pageSize);
    for (std::uint32_t i = 0; i < count; ++i) {
        PmOffset off = entryOff(i);
        if (off + entry.size() > region_.end()) {
            // Header lies: treat as unsealed (torn mid-seal).
            bd.scanNs += obs::nsSince(scan_started);
            auto repair_started = std::chrono::steady_clock::now();
            invalidate();
            bd.tornRecords = 1;
            bd.repairNs += obs::nsSince(repair_started);
            return false;
        }
        device_.read(off, entry.data(), entry.size());
        crc = crc32c(entry.data(), entry.size(), crc);
        bd.pagesScanned++;
    }
    if (crc != loadU32(header + 8)) {
        bd.scanNs += obs::nsSince(scan_started);
        auto repair_started = std::chrono::steady_clock::now();
        invalidate();
        bd.tornRecords = 1;
        bd.repairNs += obs::nsSince(repair_started);
        return false;
    }
    bd.scanNs += obs::nsSince(scan_started);

    // Sealed journal: roll the original pages back.
    auto replay_started = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < count; ++i) {
        PmOffset off = entryOff(i);
        device_.read(off, entry.data(), entry.size());
        PageId pid = loadU32(entry.data());
        PmOffset page_off = sb_.pageOffset(pid);
        device_.write(page_off, entry.data() + 8, sb_.pageSize);
        device_.flushRange(page_off, sb_.pageSize);
        bd.recordsReplayed++;
    }
    device_.sfence();
    bd.replayNs += obs::nsSince(replay_started);

    auto discard_started = std::chrono::steady_clock::now();
    invalidate();
    bd.discardNs += obs::nsSince(discard_started);
    return true;
}

} // namespace fasp::wal
