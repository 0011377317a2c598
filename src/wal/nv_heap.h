/**
 * @file
 * NvHeap: a user-level persistent heap manager, as NVWAL employs to
 * place WAL frames in PM (the paper's Figure 8 "Heap Management" cost
 * component; compare NV-Heaps / NVMalloc / HEAPO).
 *
 * Blocks carry persistent headers so the allocated set can be rebuilt
 * after a crash by a linear scan. Allocation persists the block header
 * (one store + clflush + fence) before handing out the payload — the
 * metadata-durability cost the paper attributes to NVWAL and that the
 * FAST/FASH engines avoid entirely ("FAST does not need a separate heap
 * manager because everything is non-volatile").
 *
 * Layout: [u64 heap magic][block]... where each block is
 *   u32 state (allocated / free / end-of-heap)
 *   u32 payload size
 *   u64 reserved
 *   payload (16-byte aligned)
 */

#ifndef FASP_WAL_NV_HEAP_H
#define FASP_WAL_NV_HEAP_H

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "pager/superblock.h"

namespace fasp::pm {
class PmDevice;
} // namespace fasp::pm

namespace fasp::wal {

/**
 * Persistent heap over one device region.
 */
class NvHeap
{
  public:
    static constexpr std::uint32_t kStateEnd = 0;
    static constexpr std::uint32_t kStateAllocated = 0xa110ca7e;
    static constexpr std::uint32_t kStateFree = 0xf4eeb10c;
    static constexpr std::size_t kBlockHeaderBytes = 16;

    NvHeap(pm::PmDevice &device, const pager::Region &region);

    /** Initialize an empty heap (writes magic + end marker). */
    void formatRegion();

    /** Attach to an existing heap, rebuilding the volatile free lists
     *  and bump pointer by scanning block headers. */
    Status attach();

    /**
     * Allocate @p size payload bytes. Persists the block header before
     * returning (this is the HeapMgmt cost).
     * @return device offset of the payload.
     */
    Result<PmOffset> pmalloc(std::uint32_t size);

    /** Free the block whose payload starts at @p payload_off. */
    void pfree(PmOffset payload_off);

    /** Drop every block (post-checkpoint truncation). */
    void reset();

    /** Invoke @p fn for every allocated block (payload off, size).
     *  Used by WAL recovery to find surviving frames. */
    void scanAllocated(
        const std::function<void(PmOffset, std::uint32_t)> &fn);

    /** Payload bytes currently allocated (live). */
    std::uint64_t liveBytes() const { return liveBytes_; }

    /** Fraction of the region consumed by the bump pointer. */
    double fillRatio() const;

  private:
    static constexpr std::uint64_t kHeapMagic = 0x4e56484541503031ull;

    /** Align payload sizes to keep headers naturally aligned. */
    static std::uint32_t roundSize(std::uint32_t size)
    {
        return (size + 15u) & ~15u;
    }

    PmOffset firstBlockOff() const { return region_.off + 16; }

    void writeBlockHeader(PmOffset block_off, std::uint32_t state,
                          std::uint32_t size, bool flush);

    pm::PmDevice &device_;
    pager::Region region_;
    PmOffset bumpOff_;      //!< next unused block offset
    std::uint64_t liveBytes_ = 0;

    /** size-class -> block offsets (volatile; rebuilt on attach). */
    std::map<std::uint32_t, std::vector<PmOffset>> freeLists_;
};

} // namespace fasp::wal

#endif // FASP_WAL_NV_HEAP_H
