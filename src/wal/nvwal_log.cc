#include "wal/nvwal_log.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "pm/device.h"
#include "pm/phase.h"

namespace fasp::wal {

using pm::Component;
using pm::PhaseScope;

NvwalLog::NvwalLog(pm::PmDevice &device, const pager::Superblock &sb)
    : device_(device), sb_(sb), heap_(device, sb.logRegion())
{}

void
NvwalLog::format()
{
    heap_.formatRegion();
    index_.clear();
    nextSeq_ = 1;
}

void
NvwalLog::computeDiff(
    const std::uint8_t *data, const std::uint8_t *clean, std::size_t len,
    std::vector<std::pair<std::uint16_t, std::uint16_t>> &out)
{
    out.clear();
    constexpr std::size_t kWord = 8;
    constexpr std::size_t kMergeGap = 16;
    std::size_t range_start = len; // sentinel: no open range
    std::size_t range_end = 0;

    for (std::size_t off = 0; off < len; off += kWord) {
        std::size_t n = std::min(kWord, len - off);
        bool differs = std::memcmp(data + off, clean + off, n) != 0;
        if (!differs)
            continue;
        if (range_start != len && off <= range_end + kMergeGap) {
            range_end = off + n;
        } else {
            if (range_start != len) {
                out.emplace_back(
                    static_cast<std::uint16_t>(range_start),
                    static_cast<std::uint16_t>(range_end -
                                               range_start));
            }
            range_start = off;
            range_end = off + n;
        }
    }
    if (range_start != len) {
        out.emplace_back(
            static_cast<std::uint16_t>(range_start),
            static_cast<std::uint16_t>(range_end - range_start));
    }
}

Status
NvwalLog::commitTx(TxId txid, std::span<const NvwalDirtyPage> pages)
{
    pm::SiteScope site(device_, "NvwalLog::commitTx");
    device_.txBegin();
    struct FramePlan
    {
        PageId pid;
        std::vector<std::pair<std::uint16_t, std::uint16_t>> ranges;
        std::vector<std::uint8_t> bytes; // serialized frame
        PmOffset off = 0;
        std::uint32_t seq = 0;
    };
    std::vector<FramePlan> plans;
    plans.reserve(pages.size());

    // (1) Differential-log computation (Figure 8 "NVWAL Computation").
    {
        PhaseScope scope(Component::NvwalCompute);
        for (const NvwalDirtyPage &page : pages) {
            FramePlan plan;
            plan.pid = page.pid;
            computeDiff(page.data, page.clean, sb_.pageSize,
                        plan.ranges);
            if (plan.ranges.empty())
                continue;
            plan.seq = nextSeq_++;

            std::size_t data_bytes = 0;
            for (const auto &[off, rlen] : plan.ranges)
                data_bytes += rlen;

            std::size_t frame_bytes =
                24 + 4 * plan.ranges.size() + data_bytes + 4;
            plan.bytes.resize(frame_bytes);
            std::uint8_t *p = plan.bytes.data();
            storeU32(p, kKindData);
            storeU64(p + 4, txid);
            storeU32(p + 12, plan.pid);
            storeU32(p + 16, plan.seq);
            storeU16(p + 20,
                     static_cast<std::uint16_t>(plan.ranges.size()));
            storeU16(p + 22, 0);
            std::size_t cursor = 24;
            for (const auto &[off, rlen] : plan.ranges) {
                storeU16(p + cursor, off);
                storeU16(p + cursor + 2, rlen);
                cursor += 4;
            }
            for (const auto &[off, rlen] : plan.ranges) {
                std::memcpy(p + cursor, page.data + off, rlen);
                cursor += rlen;
            }
            storeU32(p + cursor, crc32c(p, cursor));
            stats_.diffBytes += data_bytes;
            plans.push_back(std::move(plan));
        }
    }

    // (2) Persistent-heap allocation (Figure 8 "Heap Management").
    {
        PhaseScope scope(Component::HeapMgmt);
        for (FramePlan &plan : plans) {
            auto off = heap_.pmalloc(
                static_cast<std::uint32_t>(plan.bytes.size()));
            if (!off.isOk())
                return off.status();
            plan.off = *off;
        }
    }

    // (3) Store + flush the frames, fence, then the commit frame
    // (Figure 8 "Log Flush").
    {
        PhaseScope scope(Component::LogFlush);
        for (const FramePlan &plan : plans) {
            device_.write(plan.off, plan.bytes.data(),
                          plan.bytes.size());
            device_.flushRange(plan.off, plan.bytes.size());
            stats_.frames++;
            stats_.frameBytes += plan.bytes.size();
        }
        device_.sfence();

        std::uint8_t commit[24];
        storeU32(commit, kKindCommit);
        storeU64(commit + 4, txid);
        storeU32(commit + 12, 0);
        storeU32(commit + 16, nextSeq_++);
        storeU32(commit + 20, crc32c(commit, 20));
        PmOffset commit_off;
        {
            PhaseScope heap_scope(Component::HeapMgmt);
            auto res = heap_.pmalloc(sizeof(commit));
            if (!res.isOk())
                return res.status();
            commit_off = *res;
        }
        // Every data frame (and the commit frame's heap headers) must
        // be fenced before the commit frame itself is stored.
        device_.txCommitPoint();
        device_.write(commit_off, commit, sizeof(commit));
        device_.flushRange(commit_off, sizeof(commit));
        device_.sfence();
        stats_.frameBytes += sizeof(commit);
    }

    // (4) Volatile WAL-index construction (Figure 8 "Misc").
    {
        PhaseScope scope(Component::WalIndex);
        for (const FramePlan &plan : plans) {
            index_[plan.pid].push_back(FrameLoc{
                plan.seq, plan.off,
                static_cast<std::uint32_t>(plan.bytes.size())});
        }
    }

    device_.txEnd(/*committed=*/true);
    stats_.commits++;
    return Status::ok();
}

bool
NvwalLog::applyFrame(PmOffset off, std::uint32_t size,
                     std::vector<std::uint8_t> &page)
{
    if (size < 28)
        return false;
    std::vector<std::uint8_t> frame(size);
    device_.read(off, frame.data(), size);
    std::uint16_t nranges = loadU16(frame.data() + 20);
    std::size_t cursor = 24 + 4 * static_cast<std::size_t>(nranges);
    if (cursor + 4 > size)
        return false;
    std::size_t data_cursor = cursor;
    // Data bytes follow the range table; ranges are applied in order.
    for (std::uint16_t i = 0; i < nranges; ++i) {
        std::uint16_t roff = loadU16(frame.data() + 24 + 4 * i);
        std::uint16_t rlen = loadU16(frame.data() + 24 + 4 * i + 2);
        if (roff + rlen > page.size() || data_cursor + rlen > size)
            return false;
        std::memcpy(page.data() + roff, frame.data() + data_cursor,
                    rlen);
        data_cursor += rlen;
    }
    return true;
}

void
NvwalLog::fetchPage(PageId pid, std::vector<std::uint8_t> &out)
{
    out.resize(sb_.pageSize);
    device_.read(sb_.pageOffset(pid), out.data(), out.size());
    auto it = index_.find(pid);
    if (it == index_.end())
        return;
    for (const FrameLoc &loc : it->second)
        applyFrame(loc.off, loc.size, out);
}

bool
NvwalLog::needsCheckpoint() const
{
    return heap_.fillRatio() > 0.75;
}

Status
NvwalLog::checkpoint()
{
    pm::SiteScope site(device_, "NvwalLog::checkpoint");
    PhaseScope scope(Component::Checkpoint);

    std::vector<PageId> pids;
    pids.reserve(index_.size());
    for (const auto &[pid, frames] : index_)
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

    // Database image is current: the whole WAL can go.
    heap_.reset();
    index_.clear();
    stats_.checkpoints++;
    return Status::ok();
}

Status
NvwalLog::recover(RecoveryBreakdown *breakdown)
{
    pm::SiteScope site(device_, "NvwalLog::recover");
    RecoveryBreakdown local;
    RecoveryBreakdown &bd = breakdown != nullptr ? *breakdown : local;
    auto ns_since = [](std::chrono::steady_clock::time_point t0) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0).count());
    };
    auto scan_started = std::chrono::steady_clock::now();

    index_.clear();
    FASP_RETURN_IF_ERROR(heap_.attach());

    struct RawFrame
    {
        TxId txid;
        PageId pid;
        std::uint32_t seq;
        PmOffset off;
        std::uint32_t size;
        bool commit;
    };
    std::vector<RawFrame> frames;
    std::vector<PmOffset> bad_frames;

    heap_.scanAllocated([&](PmOffset off, std::uint32_t size) {
        bd.pagesScanned++;
        std::vector<std::uint8_t> buf(size);
        device_.read(off, buf.data(), size);
        if (size < 24) {
            bad_frames.push_back(off);
            return;
        }
        std::uint32_t kind = loadU32(buf.data());
        // Heap blocks are size-rounded, so recompute the logical frame
        // length from the frame's own header before checking the CRC.
        std::size_t crc_at;
        if (kind == kKindCommit) {
            crc_at = 20;
        } else if (kind == kKindData) {
            std::uint16_t nranges = loadU16(buf.data() + 20);
            std::size_t cursor = 24 + 4 * static_cast<std::size_t>(
                nranges);
            if (cursor + 4 > size) {
                bad_frames.push_back(off);
                return;
            }
            std::size_t data_bytes = 0;
            for (std::uint16_t i = 0; i < nranges; ++i)
                data_bytes += loadU16(buf.data() + 24 + 4 * i + 2);
            crc_at = cursor + data_bytes;
            if (crc_at + 4 > size) {
                bad_frames.push_back(off);
                return;
            }
        } else {
            bad_frames.push_back(off);
            return;
        }
        if (loadU32(buf.data() + crc_at) !=
            crc32c(buf.data(), crc_at)) {
            bad_frames.push_back(off);
            return;
        }
        RawFrame raw;
        raw.txid = loadU64(buf.data() + 4);
        raw.pid = loadU32(buf.data() + 12);
        raw.seq = loadU32(buf.data() + 16);
        raw.off = off;
        raw.size = size;
        raw.commit = kind == kKindCommit;
        frames.push_back(raw);
    });

    // Committed txids are those with a valid commit frame.
    std::unordered_map<TxId, bool> committed;
    std::uint32_t max_seq = 0;
    lastTxid_ = 0;
    for (const RawFrame &raw : frames) {
        if (raw.commit)
            committed[raw.txid] = true;
        max_seq = std::max(max_seq, raw.seq);
        lastTxid_ = std::max(lastTxid_, raw.txid);
    }
    nextSeq_ = max_seq + 1;
    bd.scanNs += ns_since(scan_started);

    auto replay_started = std::chrono::steady_clock::now();
    std::vector<RawFrame> keep;
    std::vector<PmOffset> drop;
    for (const RawFrame &raw : frames) {
        if (raw.commit)
            continue;
        if (committed.count(raw.txid)) {
            keep.push_back(raw);
            stats_.recoveredTxns++; // counted per surviving frame
        } else {
            drop.push_back(raw.off);
        }
    }

    std::sort(keep.begin(), keep.end(),
              [](const RawFrame &a, const RawFrame &b) {
                  return a.seq < b.seq;
              });
    for (const RawFrame &raw : keep)
        index_[raw.pid].push_back(FrameLoc{raw.seq, raw.off, raw.size});
    bd.recordsReplayed = keep.size();
    bd.replayNs += ns_since(replay_started);

    auto discard_started = std::chrono::steady_clock::now();
    for (PmOffset off : drop) {
        heap_.pfree(off);
        stats_.discardedFrames++;
    }
    bd.recordsDiscarded = drop.size();
    bd.discardNs += ns_since(discard_started);

    // Torn-record repair: a frame whose CRC or framing failed was torn
    // mid-append; releasing its heap block removes it for good.
    auto repair_started = std::chrono::steady_clock::now();
    for (PmOffset off : bad_frames) {
        heap_.pfree(off);
        stats_.discardedFrames++;
    }
    bd.tornRecords = bad_frames.size();
    bd.repairNs += ns_since(repair_started);
    return Status::ok();
}

} // namespace fasp::wal
