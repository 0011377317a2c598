#include "core/fasp_page_io.h"

#include <algorithm>
#include <cstring>

#include "common/byte_io.h"
#include "common/logging.h"
#include "page/slotted_page.h"
#include "pm/device.h"

namespace fasp::core {

FaspPageIO::FaspPageIO(pm::PmDevice &device, PmOffset page_off,
                       std::size_t page_size, bool write_through)
    : device_(device), pageOff_(page_off), pageSize_(page_size),
      writeThrough_(write_through)
{
    if (write_through)
        return;
    device_.read(pageOff_, fixed_.data(), fixed_.size());
    std::uint16_t flags = loadU16(fixed_.data() + page::kOffFlags);
    secondBuffer_ = (flags & kSecondBufferFlag) != 0;
    storeU16(fixed_.data() + page::kOffFlags,
             static_cast<std::uint16_t>(flags & ~kSecondBufferFlag));
}

void
FaspPageIO::track(std::uint16_t off, std::size_t len)
{
    if (len == 0)
        return;
    // Extend the previous range when writes are adjacent (the common
    // record-append pattern), else start a new one.
    if (!dirtyRanges_.empty()) {
        auto &[last_off, last_len] = dirtyRanges_.back();
        if (off >= last_off && off <= last_off + last_len) {
            std::uint16_t end = static_cast<std::uint16_t>(
                std::max<std::size_t>(last_off + last_len, off + len));
            last_len = static_cast<std::uint16_t>(end - last_off);
            return;
        }
    }
    dirtyRanges_.emplace_back(off, static_cast<std::uint16_t>(len));
}

void
FaspPageIO::materializeShadow()
{
    FASP_ASSERT(!writeThrough_);
    if (!shadow_.empty())
        return;
    std::size_t bytes = page::headerBytes(
        loadU16(fixed_.data() + page::kOffNumRecords));
    shadow_.resize(bytes);
    readDurableHeader(0, shadow_.data(), bytes);
    durableHeaderEnd_ = static_cast<std::uint16_t>(bytes);
}

void
FaspPageIO::readDurableHeader(std::uint16_t off, void *dst,
                              std::size_t len) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    if (off < page::kSlotArrayOff) {
        std::size_t fixed =
            std::min<std::size_t>(len, page::kSlotArrayOff - off);
        std::memcpy(out, fixed_.data() + off, fixed);
        out += fixed;
        off = static_cast<std::uint16_t>(off + fixed);
        len -= fixed;
    }
    if (len > 0) {
        PmOffset shift = secondBuffer_ ? kCacheLineSize : 0;
        device_.read(pageOff_ + off + shift, out, len);
    }
}

void
FaspPageIO::readHeader(std::uint16_t off, void *dst,
                       std::size_t len) const
{
    if (!shadow_.empty()) {
        FASP_ASSERT(off + len <= shadow_.size());
        std::memcpy(dst, shadow_.data() + off, len);
        return;
    }
    if (writeThrough_) {
        device_.read(pageOff_ + off, dst, len);
        return;
    }
    readDurableHeader(off, dst, len);
}

void
FaspPageIO::writeHeader(std::uint16_t off, const void *src,
                        std::size_t len)
{
    if (writeThrough_) {
        device_.write(pageOff_ + off, src, len);
        track(off, len);
        return;
    }
    FASP_ASSERT(!shadow_.empty() &&
                "header write before shadow materialization");
    if (off + len > shadow_.size())
        shadow_.resize(off + len, 0);
    std::memcpy(shadow_.data() + off, src, len);
    headerDirty_ = true;
    // Keep the shadow trimmed to the current header extent so the
    // commit unit (and FAST's one-line check) is exact.
    if (off == page::kOffNumRecords && len >= 2) {
        std::uint16_t nrec = loadU16(shadow_.data());
        std::size_t bytes = page::headerBytes(nrec);
        if (bytes < shadow_.size())
            shadow_.resize(bytes);
    }
}

void
FaspPageIO::readContent(std::uint16_t off, void *dst,
                        std::size_t len) const
{
    device_.read(pageOff_ + off, dst, len);
}

void
FaspPageIO::writeContent(std::uint16_t off, const void *src,
                         std::size_t len)
{
    device_.write(pageOff_ + off, src, len);
    track(off, len);
}

void
FaspPageIO::readScratch(std::uint16_t off, void *dst,
                        std::size_t len) const
{
    device_.read(pageOff_ + off, dst, len);
}

void
FaspPageIO::writeScratch(std::uint16_t off, const void *src,
                         std::size_t len)
{
    // Free-list maintenance: stores without flushes; a crash may lose
    // them, which the lazy rebuild tolerates (paper §4.3). The scratch
    // write tells the persistency checker not to demand durability.
    device_.writeScratch(pageOff_ + off, src, len);
}

bool
FaspPageIO::oneWordCommittable() const
{
    return page::headerBytes(page::reservedSlots(*this)) >=
               2 * kCacheLineSize &&
           durableHeaderEnd_ <= kCacheLineSize &&
           shadow_.size() <= kCacheLineSize &&
           loadU32(shadow_.data() + page::kOffAux) ==
               loadU32(fixed_.data() + page::kOffAux);
}

void
FaspPageIO::stageSlotArray()
{
    std::size_t len = shadow_.size() - page::kSlotArrayOff;
    if (len == 0)
        return; // the new header has no slots to stage
    PmOffset staged = pageOff_ + page::kSlotArrayOff +
                      (secondBuffer_ ? 0 : kCacheLineSize);
    device_.write(staged, shadow_.data() + page::kSlotArrayOff, len);
    device_.flushRange(staged, len);
}

std::uint64_t
FaspPageIO::durableWord0() const
{
    std::uint64_t word = loadU64(fixed_.data());
    return secondBuffer_ ? word | kSecondBufferBit : word;
}

std::uint64_t
FaspPageIO::publishedWord0() const
{
    std::uint64_t word = loadU64(shadow_.data());
    return secondBuffer_ ? word : word | kSecondBufferBit;
}

std::size_t
FaspPageIO::flushDirtyRanges()
{
    if (dirtyRanges_.empty())
        return 0;
    // Coalesce by cache line so overlapping ranges flush once.
    std::vector<PmOffset> lines;
    for (const auto &[off, len] : dirtyRanges_) {
        PmOffset start = cacheLineBase(pageOff_ + off);
        PmOffset end = pageOff_ + off + len;
        for (PmOffset line = start; line < end; line += kCacheLineSize)
            lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (PmOffset line : lines)
        device_.clflush(line);
    dirtyRanges_.clear();
    return lines.size();
}

} // namespace fasp::core
