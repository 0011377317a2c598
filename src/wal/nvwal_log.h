/**
 * @file
 * NvwalLog: the NVWAL baseline (Kim et al., ASPLOS 2016) as described
 * and measured by the paper (Sections 2.2 and 5).
 *
 * NVWAL keeps the buffer cache in DRAM and, at commit time:
 *   1. computes *differential logs* — word-granularity diffs of each
 *      dirty page against its clean snapshot (Figure 8 "NVWAL
 *      Computation");
 *   2. allocates WAL frames from a user-level persistent heap
 *      (Figure 8 "Heap Management");
 *   3. stores and flushes the frames plus a commit frame (Figure 8
 *      "Log Flush");
 *   4. updates a volatile WAL index mapping pages to their frames
 *      (part of Figure 8 "Misc" — "considerable time is spent
 *      constructing indexes for WAL frames").
 * Checkpointing is lazy: frames are applied to the database image only
 * when the heap fills (excluded from per-query time, as in the paper).
 *
 * Frame payload format (inside an NvHeap block):
 *   u32 kind (1 = data, 2 = commit)
 *   u64 txid
 *   u32 pid          (data frames)
 *   u32 seq          global sequence number
 *   u16 nranges, u16 reserved
 *   {u16 off, u16 len} x nranges
 *   diff bytes (concatenated)
 *   u32 crc          over everything above
 */

#ifndef FASP_WAL_NVWAL_LOG_H
#define FASP_WAL_NVWAL_LOG_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "pager/superblock.h"
#include "wal/nv_heap.h"

namespace fasp::pm {
class PmDevice;
} // namespace fasp::pm

namespace fasp::wal {

/** A dirty page handed to commitTx. */
struct NvwalDirtyPage
{
    PageId pid;
    const std::uint8_t *data;  //!< working copy (page-size bytes)
    const std::uint8_t *clean; //!< snapshot to diff against
};

/**
 * NVWAL log manager. Owns the persistent heap inside the superblock's
 * log region and the volatile WAL index.
 */
class NvwalLog
{
  public:
    NvwalLog(pm::PmDevice &device, const pager::Superblock &sb);

    /** Format the heap (fresh database). */
    void format();

    /** Attach after restart/crash: scan the heap, rebuild the WAL
     *  index from committed frames, discard uncommitted ones.
     *  @p breakdown (optional) receives per-phase timings/counters. */
    Status recover(obs::RecoveryBreakdown *breakdown = nullptr);

    /**
     * Commit @p pages under @p txid: diff, allocate, store, flush,
     * commit mark, index (see file comment for phase attribution).
     */
    Status commitTx(TxId txid, std::span<const NvwalDirtyPage> pages);

    /**
     * Materialize the current committed state of @p pid into @p out:
     * the database image overlaid with this page's committed frames in
     * sequence order. Used on buffer-cache misses and at checkpoint.
     */
    void fetchPage(PageId pid, std::vector<std::uint8_t> &out);

    /** Heap pressure check (drives lazy checkpointing). */
    bool needsCheckpoint() const;

    /**
     * Lazy checkpoint: apply every indexed page to the database image,
     * flush, then reset the heap and index.
     */
    Status checkpoint();

    NvHeap &heap() { return heap_; }

    /** Number of pages with committed frames in the index. */
    std::size_t indexedPages() const { return index_.size(); }

    /** Highest txid seen by the last recover() scan; the engine
     *  resumes its transaction counter above this so stale uncommitted
     *  frames can never collide with a fresh commit mark. */
    TxId lastTxid() const { return lastTxid_; }

  private:
    static constexpr std::uint32_t kKindData = 1;
    static constexpr std::uint32_t kKindCommit = 2;

    struct FrameLoc
    {
        std::uint32_t seq;
        PmOffset off;       //!< heap payload offset
        std::uint32_t size; //!< payload size
    };

    /** Word-granularity diff; adjacent ranges closer than 16 bytes are
     *  merged (fewer, larger ranges — as NVWAL does). */
    static void computeDiff(const std::uint8_t *data,
                            const std::uint8_t *clean, std::size_t len,
                            std::vector<std::pair<std::uint16_t,
                                                  std::uint16_t>> &out);

    /** Apply one committed frame at @p off onto @p page. */
    bool applyFrame(PmOffset off, std::uint32_t size,
                    std::vector<std::uint8_t> &page);

    pm::PmDevice &device_;
    pager::Superblock sb_;
    NvHeap heap_;
    std::uint32_t nextSeq_ = 1;
    TxId lastTxid_ = 0;
    std::unordered_map<PageId, std::vector<FrameLoc>> index_;
};

} // namespace fasp::wal

#endif // FASP_WAL_NVWAL_LOG_H
