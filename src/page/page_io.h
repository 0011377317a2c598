/**
 * @file
 * PageIO: the byte-level access abstraction under the slotted-page code.
 *
 * The slotted-page algorithms (insert / update / delete / split support /
 * defragmentation) are written once against this interface. Engines back
 * it differently:
 *
 *  - FAST / FASH: content writes go in-place to PM (they land in free
 *    space, so they are harmless before commit) while header writes are
 *    redirected to a volatile *shadow header* that is only published at
 *    commit time — by FAST's in-place commit (one 8-byte PCAS) or
 *    through the slot-header log. This is the paper's core idea.
 *
 *  - NVWAL / legacy WAL / rollback journal: every write goes to a
 *    volatile buffer-cache copy of the page; commit persists it via
 *    differential WAL frames / page-granularity logs.
 *
 * The page is split into three regions with different atomicity needs:
 *   header  [0, headerBytes)          — commit mark; failure-atomic
 *   content [headerBytes, size-8)     — free-space writes; pre-commit OK
 *   scratch [size-8, size)            — intra-page free list; never
 *                                       atomic, rebuilt lazily (§4.3)
 */

#ifndef FASP_PAGE_PAGE_IO_H
#define FASP_PAGE_PAGE_IO_H

#include <cstdint>
#include <vector>

#include "common/byte_io.h"
#include "common/types.h"

namespace fasp::page {

/** Byte-level page accessor; see file comment. */
class PageIO
{
  public:
    virtual ~PageIO() = default;

    /** Page size in bytes. */
    virtual std::size_t pageSize() const = 0;

    /**
     * Lowest content offset a pre-commit in-place write may use. The
     * PM engines return the end of the page's DURABLE slot header:
     * when an uncommitted split or delete shrinks the shadow header,
     * the vacated slot-array bytes are still live in the durable
     * header and must not be overwritten before commit (the hazard the
     * paper resolves with same-transaction copy-on-write, §4.3).
     * Volatile-copy engines may return 0.
     */
    virtual std::uint16_t contentFloor() const { return 0; }

    /** Read @p len header bytes at page-relative @p off. */
    virtual void readHeader(std::uint16_t off, void *dst,
                            std::size_t len) const = 0;

    /** Write @p len header bytes at @p off (may go to a shadow). */
    virtual void writeHeader(std::uint16_t off, const void *src,
                             std::size_t len) = 0;

    /** Read @p len content bytes at @p off. */
    virtual void readContent(std::uint16_t off, void *dst,
                             std::size_t len) const = 0;

    /** Write @p len content bytes at @p off (in-place into free space
     *  for the PM engines). */
    virtual void writeContent(std::uint16_t off, const void *src,
                              std::size_t len) = 0;

    /** Read @p len scratch bytes at @p off (off is page-relative). */
    virtual void readScratch(std::uint16_t off, void *dst,
                             std::size_t len) const = 0;

    /** Write @p len scratch bytes at @p off; never failure-atomic. */
    virtual void writeScratch(std::uint16_t off, const void *src,
                              std::size_t len) = 0;

    // --- typed helpers ---------------------------------------------------

    std::uint16_t readHeaderU16(std::uint16_t off) const
    {
        std::uint8_t buf[2];
        readHeader(off, buf, 2);
        return loadU16(buf);
    }

    std::uint32_t readHeaderU32(std::uint16_t off) const
    {
        std::uint8_t buf[4];
        readHeader(off, buf, 4);
        return loadU32(buf);
    }

    void writeHeaderU16(std::uint16_t off, std::uint16_t v)
    {
        std::uint8_t buf[2];
        storeU16(buf, v);
        writeHeader(off, buf, 2);
    }

    void writeHeaderU32(std::uint16_t off, std::uint32_t v)
    {
        std::uint8_t buf[4];
        storeU32(buf, v);
        writeHeader(off, buf, 4);
    }

    std::uint16_t readContentU16(std::uint16_t off) const
    {
        std::uint8_t buf[2];
        readContent(off, buf, 2);
        return loadU16(buf);
    }

    std::uint32_t readContentU32(std::uint16_t off) const
    {
        std::uint8_t buf[4];
        readContent(off, buf, 4);
        return loadU32(buf);
    }

    std::uint64_t readContentU64(std::uint16_t off) const
    {
        std::uint8_t buf[8];
        readContent(off, buf, 8);
        return loadU64(buf);
    }

    void writeContentU16(std::uint16_t off, std::uint16_t v)
    {
        std::uint8_t buf[2];
        storeU16(buf, v);
        writeContent(off, buf, 2);
    }

    std::uint16_t readScratchU16(std::uint16_t off) const
    {
        std::uint8_t buf[2];
        readScratch(off, buf, 2);
        return loadU16(buf);
    }

    void writeScratchU16(std::uint16_t off, std::uint16_t v)
    {
        std::uint8_t buf[2];
        storeU16(buf, v);
        writeScratch(off, buf, 2);
    }
};

/**
 * PageIO over a plain in-memory buffer. Backs the unit tests and the
 * volatile buffer-cache copies used by NVWAL / journal / legacy WAL.
 */
class BufferPageIO : public PageIO
{
  public:
    /** Wrap @p buf of @p size bytes; the buffer must outlive this. */
    BufferPageIO(std::uint8_t *buf, std::size_t size)
        : buf_(buf), size_(size)
    {}

    std::size_t pageSize() const override { return size_; }

    void readHeader(std::uint16_t off, void *dst,
                    std::size_t len) const override
    {
        copyOut(off, dst, len);
    }

    void writeHeader(std::uint16_t off, const void *src,
                     std::size_t len) override
    {
        copyIn(off, src, len);
    }

    void readContent(std::uint16_t off, void *dst,
                     std::size_t len) const override
    {
        copyOut(off, dst, len);
    }

    void writeContent(std::uint16_t off, const void *src,
                      std::size_t len) override
    {
        copyIn(off, src, len);
    }

    void readScratch(std::uint16_t off, void *dst,
                     std::size_t len) const override
    {
        copyOut(off, dst, len);
    }

    void writeScratch(std::uint16_t off, const void *src,
                      std::size_t len) override
    {
        copyIn(off, src, len);
    }

  private:
    void copyOut(std::uint16_t off, void *dst, std::size_t len) const;
    void copyIn(std::uint16_t off, const void *src, std::size_t len);

    std::uint8_t *buf_;
    std::size_t size_;
};

} // namespace fasp::page

#endif // FASP_PAGE_PAGE_IO_H
