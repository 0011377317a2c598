/**
 * @file
 * Superblock: page 0 of every fasp database. Written once at format
 * time and validated (magic + CRC) on every open, including recovery.
 */

#ifndef FASP_PAGER_SUPERBLOCK_H
#define FASP_PAGER_SUPERBLOCK_H

#include <cstdint>

#include "common/status.h"
#include "common/types.h"

namespace fasp::pm {
class PmDevice;
} // namespace fasp::pm

namespace fasp::pager {

/** A contiguous byte region of the PM device. */
struct Region
{
    PmOffset off = 0;
    std::uint64_t len = 0;

    PmOffset end() const { return off + len; }
    bool contains(PmOffset o, std::uint64_t l) const
    {
        return o >= off && o + l <= end();
    }
};

/** Decoded superblock contents. */
struct Superblock
{
    static constexpr std::uint64_t kMagic = 0x4641535044423031ull;

    /** v4: data pages start right after the directory again, and
     *  FAST leaves keep a second slot-array buffer in their second
     *  cache line (DESIGN.md §14). The encoding is unchanged, so the
     *  bump only fences off v3 images, whose data pages started one
     *  page later and whose leaves may hold records in that line. */
    static constexpr std::uint32_t kVersion = 4;

    /** Serialized footprint in bytes (fits one cache line exactly). */
    static constexpr std::size_t kEncodedBytes = 64;

    std::uint32_t pageSize = 0;
    std::uint32_t pageCount = 0;
    std::uint32_t bitmapPages = 0;   //!< pages 1..bitmapPages hold bits
    PageId directoryPid = 0;         //!< tree-id -> root-pid directory
    std::uint64_t logOff = 0;        //!< engine log region offset
    std::uint64_t logLen = 0;        //!< engine log region length
    std::uint64_t frOff = 0;         //!< flight-recorder region offset
    std::uint64_t frLen = 0;         //!< flight-recorder region length
                                     //!< (0 = no recorder region)

    /** First page id available for data (after meta pages). */
    PageId firstDataPid() const { return directoryPid + 1; }

    Region logRegion() const { return Region{logOff, logLen}; }

    Region flightRecorderRegion() const { return Region{frOff, frLen}; }

    /** Device offset of page @p pid. */
    PmOffset pageOffset(PageId pid) const
    {
        return static_cast<PmOffset>(pid) * pageSize;
    }

    /** Serialize (with CRC) at device offset 0 and flush. */
    void writeTo(pm::PmDevice &device) const;

    /** Deserialize from device offset 0, validating magic/CRC/bounds. */
    static Result<Superblock> readFrom(pm::PmDevice &device);
};

} // namespace fasp::pager

#endif // FASP_PAGER_SUPERBLOCK_H
