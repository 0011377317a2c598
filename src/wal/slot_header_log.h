/**
 * @file
 * SlotHeaderLog: the paper's failure-atomic slot-header redo log
 * (Sections 3.3, 4.1, 4.4).
 *
 * For a transaction that dirties multiple pages, the records themselves
 * are written in-place into page free space (harmless before commit);
 * only the *new slot headers* — tiny, header-sized metadata — are
 * written to this log, followed by a CRC-protected commit mark. Once
 * the mark is durable the transaction is committed; the headers are
 * then eagerly checkpointed into their pages and the log is truncated,
 * so readers never need to consult the log.
 *
 * The log also carries page-allocation deltas (alloc/free page ids) so
 * that allocator-bitmap updates commit atomically with the headers;
 * bitmap bit updates are idempotent, which makes checkpoint replay
 * after a crash safe.
 *
 * Log format (within the superblock's log region):
 *   region+0   : 64-byte reserved header area
 *   region+64  : entries, each [u16 type][u16 len][body]
 *       type 0 End        len 0
 *       type 1 PageHeader body = u32 pid, u16 headerLen, bytes
 *       type 2 PageAlloc  body = u32 pid
 *       type 3 PageFree   body = u32 pid
 *       type 4 Commit     body = u64 txid, u64 epoch, u32 crc
 * The CRC covers every entry byte of the transaction before the commit
 * entry, so a torn or unfinished tail is always detected and discarded
 * (paper §4.4: entries are meaningless without a valid commit mark).
 */

#ifndef FASP_WAL_SLOT_HEADER_LOG_H
#define FASP_WAL_SLOT_HEADER_LOG_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "pager/superblock.h"

namespace fasp::pm {
class PmDevice;
} // namespace fasp::pm

namespace fasp::wal {

/** Outcome of a post-crash recovery scan. */
struct SlotHeaderRecovery
{
    bool replayed = false;              //!< a committed tx was applied
    std::vector<PageId> touchedPages;   //!< pages whose headers were
                                        //!< replayed (free lists need a
                                        //!< lazy rebuild)
};

/**
 * The slot-header redo log. One instance per FAST/FASH engine.
 *
 * A durable *epoch* counter in the log header guards against stale-
 * transaction resurrection: truncation bumps the epoch, every commit
 * mark embeds the epoch it was written under, and recovery only
 * replays a commit mark from the current epoch. Without this, a crash
 * that partially persists a fresh append over the truncation marker
 * can expose the previous (already checkpointed) transaction's bytes
 * — whose CRC is self-consistent — and replay it, rolling back every
 * in-place commit that happened since.
 */
class SlotHeaderLog
{
  public:
    SlotHeaderLog(pm::PmDevice &device, const pager::Superblock &sb);

    /** Current truncation epoch (tests). */
    std::uint64_t epoch() const { return epoch_; }

    /** Start assembling a transaction (resets the volatile cursor; the
     *  log itself is always empty here thanks to eager checkpointing). */
    void begin();

    /**
     * Append the new slot header of @p pid. @p header is the full
     * commit unit: fixed header + record offset array.
     * Stores only — no flushes (those happen in commit()).
     */
    Status appendPageHeader(PageId pid,
                            std::span<const std::uint8_t> header);

    /** Append a page-allocation delta. */
    Status appendPageAlloc(PageId pid);

    /** Append a page-free delta. */
    Status appendPageFree(PageId pid);

    /** Number of entries appended since begin(). */
    std::size_t pendingEntries() const { return pending_.size(); }

    /**
     * Make the transaction durable: flush all appended entry lines,
     * fence, append the commit mark, flush it, fence (paper §3.3: entry
     * order is free as long as everything precedes the commit mark).
     */
    Status commit(TxId txid);

    /**
     * Eager checkpoint (paper Figure 5): copy each logged slot header
     * into its page, apply allocator-bitmap deltas, flush, fence, then
     * truncate the log so other transactions never consult it.
     */
    Status checkpointAndTruncate();

    /**
     * Post-crash recovery (paper §4.4): scan the log; a transaction
     * with a valid commit mark is replayed (checkpoint is idempotent),
     * anything else is discarded; the log is truncated either way.
     * @p breakdown (optional) receives per-phase timings/counters.
     */
    Result<SlotHeaderRecovery> recover(
        obs::RecoveryBreakdown *breakdown = nullptr);

    /** Bytes of log space a header entry for @p header_len consumes. */
    static std::size_t pageHeaderEntryBytes(std::size_t header_len)
    {
        return 4 + 6 + header_len;
    }

    /** Size of the commit-mark entry. */
    static constexpr std::size_t kCommitEntryBytes = 4 + 20;

  private:
    enum EntryType : std::uint16_t {
        kEnd = 0,
        kPageHeader = 1,
        kPageAlloc = 2,
        kPageFree = 3,
        kCommit = 4,
    };

    /** Volatile copy of an appended entry, kept so checkpoint does not
     *  have to re-parse PM. */
    struct PendingEntry
    {
        EntryType type;
        PageId pid;
        std::vector<std::uint8_t> header; // kPageHeader only
    };

    PmOffset entryStart() const { return region_.off + 64; }

    Status appendRaw(EntryType type,
                     std::span<const std::uint8_t> body);

    /** Apply one logged entry durably (write + flush). */
    void applyEntry(const PendingEntry &entry,
                    std::vector<std::uint32_t> &bitmap_bytes_touched);

    /** Bump the epoch and write the End marker; both durable. */
    void truncate();

    /** Read (or initialize) the durable log header / epoch. */
    void ensureAttached();

    /** Persist the log header {magic, epoch}. */
    void writeLogHeader();

    pm::PmDevice &device_;
    pager::Superblock sb_;
    pager::Region region_;

    PmOffset writeOff_;       //!< next free byte in the log
    std::uint64_t epoch_ = 0; //!< 0 = not yet attached
    std::uint32_t runningCrc_;
    std::vector<PendingEntry> pending_;
};

} // namespace fasp::wal

#endif // FASP_WAL_SLOT_HEADER_LOG_H
