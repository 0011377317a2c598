/**
 * @file
 * LegacyWal: page-granularity write-ahead logging (paper Figure 1b /
 * Section 2.1), i.e. SQLite's WAL mode with the log placed in PM.
 *
 * At commit, each dirty page is appended to the log as a *full page*
 * frame, followed by a commit frame. The database image is only
 * updated by (lazy) checkpointing. Readers overlay the newest
 * committed frame of a page over the database image.
 *
 * Compared with NVWAL this lacks differential logging — the ablation
 * that isolates how much of NVWAL's win comes from logging less data.
 *
 * Frame format: [u32 kind][u32 pid][u64 txid][u64 epoch][u32 seq]
 *               [u32 crc][page bytes (data frames only)]
 * kind: 0 = end-of-log, 1 = data, 2 = commit. The epoch (durably
 * stored in the log header and bumped on every truncation) prevents
 * stale already-checkpointed frames from being replayed after a crash
 * lands mid-append over the truncation marker.
 */

#ifndef FASP_WAL_LEGACY_WAL_H
#define FASP_WAL_LEGACY_WAL_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "pager/superblock.h"

namespace fasp::pm {
class PmDevice;
} // namespace fasp::pm

namespace fasp::wal {

/** A dirty page handed to LegacyWal::commitTx. */
struct WalDirtyPage
{
    PageId pid;
    const std::uint8_t *data; //!< full page image
};

class LegacyWal
{
  public:
    LegacyWal(pm::PmDevice &device, const pager::Superblock &sb);

    /** Initialize an empty log. */
    void format();

    /** Rebuild the frame index after restart/crash: committed frames
     *  are indexed, an uncommitted tail is ignored. @p breakdown
     *  (optional) receives per-phase timings/counters. */
    Status recover(obs::RecoveryBreakdown *breakdown = nullptr);

    /** Append full-page frames + commit frame; flush; index. */
    Status commitTx(TxId txid, std::span<const WalDirtyPage> pages);

    /** Newest committed state of @p pid (database image + overlay). */
    void fetchPage(PageId pid, std::vector<std::uint8_t> &out);

    bool needsCheckpoint() const;

    /** Apply the newest frame of every page to the database image,
     *  flush, and truncate the log. */
    Status checkpoint();

    /** Bytes of log space consumed since the last checkpoint. */
    std::uint64_t bytesUsed() const { return writeOff_ - logStart(); }

    /** Current truncation epoch (tests). */
    std::uint64_t epoch() const { return epoch_; }

    /** Highest committed txid seen by the last recover() scan; the
     *  engine resumes its transaction counter above this so txids
     *  never collide across restarts. */
    TxId lastTxid() const { return lastTxid_; }

  private:
    static constexpr std::uint32_t kKindEnd = 0;
    static constexpr std::uint32_t kKindData = 1;
    static constexpr std::uint32_t kKindCommit = 2;
    static constexpr std::size_t kFrameHeaderBytes = 32;

    PmOffset logStart() const { return region_.off + 64; }
    std::size_t dataFrameBytes() const
    {
        return kFrameHeaderBytes + sb_.pageSize;
    }

    void truncate();
    void ensureAttached();
    void writeLogHeader();

    pm::PmDevice &device_;
    pager::Superblock sb_;
    pager::Region region_;
    PmOffset writeOff_;
    std::uint64_t epoch_ = 0; //!< 0 = not yet attached
    TxId lastTxid_ = 0;
    std::uint32_t nextSeq_ = 1;

    /** pid -> device offset of its newest committed data frame. */
    std::unordered_map<PageId, PmOffset> index_;
};

} // namespace fasp::wal

#endif // FASP_WAL_LEGACY_WAL_H
