#include "wal/nv_heap.h"

#include "common/logging.h"
#include "pm/device.h"

namespace fasp::wal {

NvHeap::NvHeap(pm::PmDevice &device, const pager::Region &region)
    : device_(device), region_(region), bumpOff_(firstBlockOff())
{
    FASP_ASSERT(region_.len >= 4096);
}

void
NvHeap::writeBlockHeader(PmOffset block_off, std::uint32_t state,
                         std::uint32_t size, bool flush)
{
    std::uint8_t header[kBlockHeaderBytes] = {};
    storeU32(header, state);
    storeU32(header + 4, size);
    // fasp-analyze: allow(v1s) -- flush=false callers take over
    // durability (formatRegion covers this header with its own
    // flushRange); flush=true flushes right below.
    device_.write(block_off, header, kBlockHeaderBytes);
    if (flush) {
        // Persisting allocator metadata: the heap-management cost.
        device_.flushRange(block_off, kBlockHeaderBytes);
        device_.sfence();
    }
}

void
NvHeap::formatRegion()
{
    pm::SiteScope site(device_, "NvHeap::formatRegion");
    device_.writeU64(region_.off, kHeapMagic);
    writeBlockHeader(firstBlockOff(), kStateEnd, 0, /*flush=*/false);
    device_.flushRange(region_.off, 16 + kBlockHeaderBytes);
    device_.sfence();
    bumpOff_ = firstBlockOff();
    freeLists_.clear();
    liveBytes_ = 0;
}

Status
NvHeap::attach()
{
    if (device_.readU64(region_.off) != kHeapMagic)
        return statusCorruption("NvHeap: bad magic");
    freeLists_.clear();
    liveBytes_ = 0;

    PmOffset cursor = firstBlockOff();
    while (cursor + kBlockHeaderBytes <= region_.end()) {
        std::uint32_t state = device_.readU32(cursor);
        std::uint32_t size = device_.readU32(cursor + 4);
        if (state == kStateEnd)
            break;
        if ((state != kStateAllocated && state != kStateFree) ||
            cursor + kBlockHeaderBytes + size > region_.end()) {
            // A torn trailing header: treat as end of heap. Anything
            // beyond it was never committed anywhere.
            break;
        }
        if (state == kStateFree)
            freeLists_[size].push_back(cursor);
        else
            liveBytes_ += size;
        cursor += kBlockHeaderBytes + size;
    }
    bumpOff_ = cursor;
    return Status::ok();
}

Result<PmOffset>
NvHeap::pmalloc(std::uint32_t size)
{
    pm::SiteScope site(device_, "NvHeap::pmalloc");
    std::uint32_t rounded = roundSize(size);

    // Exact-size-class reuse first (WAL frames repeat sizes heavily).
    auto it = freeLists_.lower_bound(rounded);
    if (it != freeLists_.end() && !it->second.empty() &&
        it->first == rounded) {
        PmOffset block = it->second.back();
        it->second.pop_back();
        writeBlockHeader(block, kStateAllocated, rounded,
                         /*flush=*/true);
        liveBytes_ += rounded;
        return block + kBlockHeaderBytes;
    }

    // Bump allocation.
    PmOffset block = bumpOff_;
    PmOffset next = block + kBlockHeaderBytes + rounded;
    if (next + kBlockHeaderBytes > region_.end())
        return Status(StatusCode::LogFull, "NvHeap exhausted");

    // Order matters: terminate the heap *after* the new block before
    // publishing the new block itself, so a crash can never expose an
    // unterminated scan.
    writeBlockHeader(next, kStateEnd, 0, /*flush=*/true);
    writeBlockHeader(block, kStateAllocated, rounded, /*flush=*/true);
    bumpOff_ = next;
    liveBytes_ += rounded;
    return block + kBlockHeaderBytes;
}

void
NvHeap::pfree(PmOffset payload_off)
{
    pm::SiteScope site(device_, "NvHeap::pfree");
    PmOffset block = payload_off - kBlockHeaderBytes;
    std::uint32_t state = device_.readU32(block);
    std::uint32_t size = device_.readU32(block + 4);
    FASP_ASSERT(state == kStateAllocated);
    writeBlockHeader(block, kStateFree, size, /*flush=*/true);
    freeLists_[size].push_back(block);
    liveBytes_ -= size;
}

void
NvHeap::reset()
{
    formatRegion();
}

void
NvHeap::scanAllocated(
    const std::function<void(PmOffset, std::uint32_t)> &fn)
{
    PmOffset cursor = firstBlockOff();
    while (cursor + kBlockHeaderBytes <= region_.end()) {
        std::uint32_t state = device_.readU32(cursor);
        std::uint32_t size = device_.readU32(cursor + 4);
        if (state == kStateEnd)
            break;
        if ((state != kStateAllocated && state != kStateFree) ||
            cursor + kBlockHeaderBytes + size > region_.end()) {
            break;
        }
        if (state == kStateAllocated)
            fn(cursor + kBlockHeaderBytes, size);
        cursor += kBlockHeaderBytes + size;
    }
}

double
NvHeap::fillRatio() const
{
    return static_cast<double>(bumpOff_ - region_.off) /
           static_cast<double>(region_.len);
}

} // namespace fasp::wal
