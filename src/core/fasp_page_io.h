/**
 * @file
 * FaspPageIO: the PageIO backing used by the FAST and FASH engines.
 *
 * This class embodies the paper's central mechanism:
 *
 *  - Content writes go *in place* to PM. They land in page free space,
 *    which is "perishable scratch space" (paper §4.4) until the slot
 *    header commits, so a crash at any point cannot corrupt the page.
 *    Each write's byte range is tracked so commit can clflush exactly
 *    the dirty record bytes (Figure 7 "clflush(record)").
 *
 *  - Header writes are redirected to a volatile *shadow header* — the
 *    transaction-private image of the fixed header + record offset
 *    array. The shadow is published at commit time by the FAST
 *    in-place commit (one 8-byte PCAS) or through the slot-header
 *    log.
 *
 *  - Scratch writes (intra-page free list) go straight to PM with no
 *    tracking or flushing: they never need failure atomicity (§4.3).
 *
 * Physical header layout (DESIGN.md §14). A page that commits in place
 * keeps two slot-array buffers: the first at kSlotArrayOff in line 0,
 * the second kCacheLineSize further, in line 1 (a FAST leaf reserves
 * both lines, so no record lives there). Flags bit 3 of header word 0
 * — kSecondBufferFlag — selects the live one. This class alone knows
 * that: every read shows src/page and src/btree the logical header
 * (flag clear, array at kSlotArrayOff), and shadowBytes() is that
 * canonical image, which the logged commit writes raw at page
 * offset 0 — resetting the page to the first buffer. The PCAS commit
 * instead stages the new array in the unused buffer and publishes it
 * together with nrec and contentStart by a CAS of word 0 alone.
 *
 * The fixed header and the flag are read once, at construction: the
 * transaction's page latch keeps the durable header fixed for the
 * object's lifetime, and its own header writes go to the shadow.
 *
 * Freshly allocated pages are write-through: they are unreachable
 * until the committing transaction publishes a pointer to them, so
 * even their headers can be written directly (paper §4.4: a crash
 * simply garbage-collects the orphan sibling). page::init() writes
 * them in the canonical layout.
 */

#ifndef FASP_CORE_FASP_PAGE_IO_H
#define FASP_CORE_FASP_PAGE_IO_H

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "page/page_io.h"
#include "page/slotted_page.h"

namespace fasp::pm {
class PmDevice;
} // namespace fasp::pm

namespace fasp::core {

/** See file comment. */
class FaspPageIO : public page::PageIO
{
  public:
    /** Flags bit 3: the live slot array is the second buffer. */
    static constexpr std::uint16_t kSecondBufferFlag = 1u << 3;

    /**
     * @param write_through fresh page: all writes go straight to PM
     *        (still range-tracked so commit flushes them).
     */
    FaspPageIO(pm::PmDevice &device, PmOffset page_off,
               std::size_t page_size, bool write_through);

    std::size_t pageSize() const override { return pageSize_; }

    void readHeader(std::uint16_t off, void *dst,
                    std::size_t len) const override;
    void writeHeader(std::uint16_t off, const void *src,
                     std::size_t len) override;
    void readContent(std::uint16_t off, void *dst,
                     std::size_t len) const override;
    void writeContent(std::uint16_t off, const void *src,
                      std::size_t len) override;
    void readScratch(std::uint16_t off, void *dst,
                     std::size_t len) const override;
    void writeScratch(std::uint16_t off, const void *src,
                      std::size_t len) override;

    /** Durable slot-header extent: content writes below this would
     *  tear the committed header on a crash (see PageIO doc). */
    std::uint16_t contentFloor() const override
    {
        return durableHeaderEnd_;
    }

    // --- Shadow management (engine side) ---------------------------------

    /** Copy the page's current durable header into the shadow. */
    void materializeShadow();

    bool hasShadow() const { return !shadow_.empty(); }

    /** True once any header write hit the shadow. */
    bool headerDirty() const { return headerDirty_; }

    /** The new slot header to publish at commit, canonical layout. */
    std::span<const std::uint8_t> shadowBytes() const
    {
        return std::span<const std::uint8_t>(shadow_);
    }

    // --- One-word in-place commit (engine side) --------------------------

    /**
     * True when one CAS of header word 0 can publish the shadow: the
     * page reserves both slot-array lines, the durable and the new
     * array each fit one buffer, and aux — the only fixed-header field
     * outside word 0 — is unchanged.
     */
    bool oneWordCommittable() const;

    /**
     * Store the shadow's slot array into the buffer readers do not use
     * and clflush its line; the caller fences. Invisible until
     * publishedWord0() lands in word 0.
     */
    void stageSlotArray();

    /** Header word 0 as read at construction, buffer flag (and any
     *  PCAS tag) included: the expected value of the publishing CAS. */
    std::uint64_t durableWord0() const;

    /** The shadow's word 0 (nrec, contentStart, flags, level) with the
     *  buffer flag switched to the staged array. */
    std::uint64_t publishedWord0() const;

    /** True if any tracked (content / write-through) write happened. */
    bool contentDirty() const { return !dirtyRanges_.empty(); }

    bool writeThrough() const { return writeThrough_; }

    PmOffset pageOff() const { return pageOff_; }

    /**
     * clflush every tracked dirty byte range (coalesced by cache
     * line). Returns the number of flushes issued.
     */
    std::size_t flushDirtyRanges();

  private:
    /** kSecondBufferFlag's bit in header word 0. */
    static constexpr std::uint64_t kSecondBufferBit =
        std::uint64_t{kSecondBufferFlag} << (8 * page::kOffFlags);

    void track(std::uint16_t off, std::size_t len);

    /** Logical header bytes [off, off+len) as durable in PM (not for
     *  write-through pages). */
    void readDurableHeader(std::uint16_t off, void *dst,
                           std::size_t len) const;

    pm::PmDevice &device_;
    PmOffset pageOff_;
    std::size_t pageSize_;
    bool writeThrough_;
    bool headerDirty_ = false;

    /** The live slot array is the second buffer (always false for a
     *  write-through page, which is written in canonical layout). */
    bool secondBuffer_ = false;

    /** The durable fixed header, buffer flag cleared (unused for a
     *  write-through page). */
    std::array<std::uint8_t, page::kSlotArrayOff> fixed_{};

    /** End of the page's durable slot header, captured when the
     *  shadow is materialized (0 for write-through pages). */
    std::uint16_t durableHeaderEnd_ = 0;

    /** Shadow header: fixed header + offset array; empty until
     *  materialized. Always sized to the current header extent. */
    std::vector<std::uint8_t> shadow_;

    /** Page-relative dirty byte ranges awaiting clflush at commit. */
    std::vector<std::pair<std::uint16_t, std::uint16_t>> dirtyRanges_;
};

} // namespace fasp::core

#endif // FASP_CORE_FASP_PAGE_IO_H
