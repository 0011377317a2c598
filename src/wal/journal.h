/**
 * @file
 * RollbackJournal: the traditional journaling baseline (paper Figure
 * 1a / Section 2.1).
 *
 * Before a transaction overwrites database pages in place, the
 * *original* content of every page it will touch is copied to the
 * journal ("write() to journal"), the journal header is sealed and
 * flushed ("fsync() for journal"), the dirty volatile copies overwrite
 * the database pages ("write() to database" + "fsync() for DB"), and
 * finally the journal is invalidated. A crash with a sealed journal
 * rolls the originals back; the commit point is journal invalidation.
 *
 * This doubles the persistent writes at the database layer — the
 * write-amplification the paper's motivation cites.
 *
 * Layout (inside the superblock's log region):
 *   +0  u32 magic, u32 pageCount, u32 crc, u32 reserved
 *   +64 entries: {u32 pid, u32 reserved, page bytes} x pageCount
 */

#ifndef FASP_WAL_JOURNAL_H
#define FASP_WAL_JOURNAL_H

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "pager/superblock.h"

namespace fasp::pm {
class PmDevice;
} // namespace fasp::pm

namespace fasp::wal {

class RollbackJournal
{
  public:
    RollbackJournal(pm::PmDevice &device, const pager::Superblock &sb);

    /** Initialize an empty (invalid) journal. */
    void format();

    /** Begin collecting pages for one transaction. */
    void begin();

    /** Copy the current durable content of @p pid into the journal and
     *  flush it (must precede any in-place overwrite of that page). */
    Status journalPage(PageId pid);

    /** Seal the journal: write header {count, crc}, flush, fence. Only
     *  after this may the caller overwrite database pages. */
    Status seal();

    /** Invalidate the journal (the commit point). */
    void invalidate();

    /**
     * Post-crash recovery: a sealed, CRC-valid journal is rolled back
     * into the database image; anything else is discarded.
     * @p breakdown (optional) receives per-phase timings/counters.
     * @return true if a rollback was performed.
     */
    Result<bool> recover(obs::RecoveryBreakdown *breakdown = nullptr);

  private:
    static constexpr std::uint32_t kMagic = 0x4a524e4cu; // "JRNL"

    PmOffset entryOff(std::uint32_t index) const;

    pm::PmDevice &device_;
    pager::Superblock sb_;
    pager::Region region_;
    std::uint32_t count_ = 0;
    std::uint32_t runningCrc_ = 0;
};

} // namespace fasp::wal

#endif // FASP_WAL_JOURNAL_H
