#include "pager/pager.h"

#include <vector>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "page/page_io.h"
#include "page/slotted_page.h"
#include "pm/device.h"

namespace fasp::pager {

BitmapSlot
bitmapSlot(PageId pid)
{
    BitmapSlot slot;
    slot.byteIndex = pid / 8;
    slot.mask = static_cast<std::uint8_t>(1u << (pid % 8));
    return slot;
}

Result<PageId>
PageAllocator::allocate()
{
    // First-fit scan from the hint, wrapping once.
    for (int pass = 0; pass < 2; ++pass) {
        PageId start = pass == 0 ? hint_ : 0;
        for (PageId pid = start; pid < pageCount_; ++pid) {
            BitmapSlot slot = bitmapSlot(pid);
            std::uint8_t byte = io_.readByte(slot.byteIndex);
            if ((byte & slot.mask) == 0) {
                io_.writeByte(slot.byteIndex,
                              static_cast<std::uint8_t>(byte |
                                                        slot.mask));
                hint_ = pid + 1;
                return pid;
            }
            // Skip whole free-less bytes quickly.
            if (byte == 0xff && pid % 8 == 0)
                pid += 7;
        }
        if (pass == 0 && hint_ == 0)
            break;
    }
    return Status(StatusCode::NoSpace, "page allocator exhausted");
}

void
PageAllocator::free(PageId pid)
{
    FASP_ASSERT(pid < pageCount_);
    BitmapSlot slot = bitmapSlot(pid);
    std::uint8_t byte = io_.readByte(slot.byteIndex);
    io_.writeByte(slot.byteIndex,
                  static_cast<std::uint8_t>(byte & ~slot.mask));
    if (pid < hint_)
        hint_ = pid;
}

void
PageAllocator::markAllocated(PageId pid)
{
    FASP_ASSERT(pid < pageCount_);
    BitmapSlot slot = bitmapSlot(pid);
    std::uint8_t byte = io_.readByte(slot.byteIndex);
    io_.writeByte(slot.byteIndex,
                  static_cast<std::uint8_t>(byte | slot.mask));
}

bool
PageAllocator::isAllocated(PageId pid) const
{
    BitmapSlot slot = bitmapSlot(pid);
    return (io_.readByte(slot.byteIndex) & slot.mask) != 0;
}

std::uint32_t
PageAllocator::allocatedCount() const
{
    std::uint32_t count = 0;
    for (PageId pid = 0; pid < pageCount_; ++pid)
        count += isAllocated(pid) ? 1 : 0;
    return count;
}

Result<Superblock>
Pager::format(pm::PmDevice &device, const FormatParams &params)
{
    pm::SiteScope site(device, "Pager::format");
    const std::uint32_t psize = params.pageSize;
    if (psize < 256 || psize > 32768 || (psize & (psize - 1)) != 0) {
        return statusInvalid(
            "page size must be a power of two in [256, 32768] "
            "(page offsets are 16-bit)");
    }
    if (device.size() <= params.logLen + params.frLen + 4 * psize)
        return statusInvalid("device too small for layout");

    std::uint64_t page_area =
        device.size() - params.logLen - params.frLen;
    auto page_count = static_cast<std::uint32_t>(page_area / psize);

    // Bitmap sizing: 1 bit per page, rounded up to whole pages.
    std::uint32_t bitmap_bytes = (page_count + 7) / 8;
    std::uint32_t bitmap_pages = (bitmap_bytes + psize - 1) / psize;

    Superblock sb;
    sb.pageSize = psize;
    sb.pageCount = page_count;
    sb.bitmapPages = bitmap_pages;
    sb.directoryPid = 1 + bitmap_pages;
    sb.logOff = static_cast<std::uint64_t>(page_count) * psize;
    sb.logLen = params.logLen;
    sb.frOff = sb.logOff + sb.logLen;
    sb.frLen = params.frLen;

    // Zero the meta pages (bitmap starts all-free).
    device.memset(0, 0,
                  static_cast<std::size_t>(sb.firstDataPid()) * psize);

    // Mark superblock, bitmap pages and directory allocated.
    std::vector<std::uint8_t> bitmap(bitmap_bytes, 0);
    VectorBitmapIO bitmap_io(bitmap);
    for (PageId pid = 0; pid < sb.firstDataPid(); ++pid) {
        BitmapSlot slot = bitmapSlot(pid);
        bitmap_io.writeByte(
            slot.byteIndex,
            static_cast<std::uint8_t>(bitmap_io.readByte(slot.byteIndex) |
                                      slot.mask));
    }
    // fasp-analyze: allow(v1s) -- inside the flushRange(0,
    // firstDataPid()*psize) extent below; the analyzer cannot relate
    // pageOffset(pid) arithmetic to that extent.
    device.write(sb.pageOffset(1), bitmap.data(), bitmap.size());

    // Empty directory page: a slotted leaf mapping tree ids to roots.
    std::vector<std::uint8_t> dir_page(psize, 0);
    page::BufferPageIO dir_io(dir_page.data(), psize);
    page::init(dir_io, page::PageType::Leaf, 0);
    // fasp-analyze: allow(v1s) -- same extent argument as the bitmap
    // page write above (directoryPid < firstDataPid by construction).
    device.write(sb.pageOffset(sb.directoryPid), dir_page.data(), psize);

    // Zero the log region header area so engines see a clean log.
    device.memset(sb.logOff, 0,
                  std::min<std::uint64_t>(sb.logLen, psize));

    // Flush from offset 0: page 0 was zeroed by the memset above, and
    // its lines beyond the superblock would otherwise stay dirty.
    device.flushRange(0, static_cast<std::size_t>(sb.firstDataPid()) *
                             psize);
    device.flushRange(sb.logOff,
                      std::min<std::uint64_t>(sb.logLen, psize));
    device.sfence();

    // Flight-recorder ring: header + zeroed slots, so later opens and
    // offline forensics always find a decodable ring.
    if (sb.frLen != 0)
        obs::FlightRecorder::formatRegion(device, sb.frOff, sb.frLen);

    sb.writeTo(device); // flushes and fences itself
    return sb;
}

Result<Superblock>
Pager::open(pm::PmDevice &device)
{
    return Superblock::readFrom(device);
}

void
Pager::loadBitmap(pm::PmDevice &device, const Superblock &sb,
                  std::vector<std::uint8_t> &out)
{
    std::uint32_t bitmap_bytes = (sb.pageCount + 7) / 8;
    out.resize(bitmap_bytes);
    device.read(sb.pageOffset(1), out.data(), bitmap_bytes);
}

PmOffset
Pager::bitmapByteOffset(const Superblock &sb, std::uint32_t index)
{
    return sb.pageOffset(1) + index;
}

} // namespace fasp::pager
