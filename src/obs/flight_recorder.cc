// fasp-analyze: allow-file(raw-std-sync) -- lock-free PM flight recorder;
// must stay wait-free on the store path, invisible to fasp-mc by design.
#include "obs/flight_recorder.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "pm/device.h"

namespace fasp::obs {

std::atomic<bool> FlightRecorder::gEnabled{false};

const char *
flightEventTypeName(FlightEventType type)
{
    switch (type) {
      case FlightEventType::Invalid: return "invalid";
      case FlightEventType::OpBegin: return "op-begin";
      case FlightEventType::CommitPoint: return "commit-point";
      case FlightEventType::Abort: return "abort";
      case FlightEventType::Fallback: return "fallback";
      case FlightEventType::PageSplit: return "page-split";
      case FlightEventType::Defrag: return "defrag";
      case FlightEventType::RecoveryBegin: return "recovery-begin";
      case FlightEventType::RecoveryEnd: return "recovery-end";
    }
    return "?";
}

namespace {

/** Largest power of two <= v (v >= 1). */
std::uint32_t
floorPow2(std::uint64_t v)
{
    std::uint32_t p = 1;
    while ((static_cast<std::uint64_t>(p) << 1) <= v)
        p <<= 1;
    return p;
}

std::uint32_t
regionCapacity(std::uint64_t len)
{
    if (len < FlightRecorder::kHeaderBytes +
                  8 * FlightRecorder::kRecordBytes)
        return 0;
    std::uint64_t slots = (len - FlightRecorder::kHeaderBytes) /
                          FlightRecorder::kRecordBytes;
    return floorPow2(slots);
}

} // namespace

FlightRecorder::FlightRecorder(pm::PmDevice &device, PmOffset off,
                               std::uint64_t len)
    : device_(device), off_(off), len_(len),
      capacity_(regionCapacity(len))
{}

void
FlightRecorder::formatRegion(pm::PmDevice &device, PmOffset off,
                             std::uint64_t len)
{
    std::uint32_t capacity = regionCapacity(len);
    if (capacity == 0)
        return;
    pm::SiteScope site(device, "FlightRecorder::format");

    std::array<std::uint8_t, kHeaderBytes> header{};
    storeU64(header.data() + 0, kMagic);
    storeU32(header.data() + 8, kFormatVersion);
    storeU32(header.data() + 12,
             static_cast<std::uint32_t>(kRecordBytes));
    storeU32(header.data() + 16, capacity);
    storeU32(header.data() + 20, crc32c(header.data(), 20));
    device.write(off, header.data(), header.size());

    std::array<std::uint8_t, 4096> zeros{};
    std::uint64_t body = static_cast<std::uint64_t>(capacity) *
                         kRecordBytes;
    for (std::uint64_t done = 0; done < body;) {
        std::uint64_t n = std::min<std::uint64_t>(zeros.size(),
                                                  body - done);
        device.write(off + kHeaderBytes + done, zeros.data(), n);
        done += n;
    }
    device.flushRange(off, kHeaderBytes + body);
    device.sfence();
}

Result<FlightAttachStats>
FlightRecorder::attach()
{
    if (capacity_ == 0)
        return Status(StatusCode::InvalidArgument,
                      "flight-recorder region too small");
    std::array<std::uint8_t, kHeaderBytes> header{};
    device_.read(off_, header.data(), header.size());
    if (loadU64(header.data()) != kMagic)
        return Status(StatusCode::Corruption,
                      "flight-recorder magic mismatch");
    if (loadU32(header.data() + 20) != crc32c(header.data(), 20))
        return Status(StatusCode::Corruption,
                      "flight-recorder header CRC mismatch");
    if (loadU32(header.data() + 8) != kFormatVersion ||
        loadU32(header.data() + 12) != kRecordBytes)
        return Status(StatusCode::Corruption,
                      "flight-recorder header version");
    std::uint32_t capacity = loadU32(header.data() + 16);
    if (capacity == 0 || (capacity & (capacity - 1)) != 0 ||
        capacity > regionCapacity(len_)) {
        return Status(StatusCode::Corruption,
                      "flight-recorder capacity");
    }
    capacity_ = capacity;

    FlightAttachStats stats;
    std::vector<std::uint32_t> torn;
    std::array<std::uint8_t, kRecordBytes> slot{};
    for (std::uint32_t i = 0; i < capacity_; ++i) {
        device_.read(off_ + kHeaderBytes +
                         static_cast<std::uint64_t>(i) * kRecordBytes,
                     slot.data(), slot.size());
        FlightRecord rec;
        bool is_torn = false;
        if (decodeSlot(slot.data(), rec, &is_torn)) {
            stats.validRecords++;
            stats.maxSeq = std::max(stats.maxSeq, rec.seq);
        } else if (is_torn) {
            torn.push_back(i);
        }
    }

    // Torn-record repair: zero every slot that failed its CRC so the
    // next scan (or an offline forensics pass over the repaired image)
    // sees an unambiguous ring again.
    if (!torn.empty()) {
        pm::SiteScope site(device_, "FlightRecorder::repair");
        std::array<std::uint8_t, kRecordBytes> zeros{};
        for (std::uint32_t i : torn) {
            PmOffset o = off_ + kHeaderBytes +
                         static_cast<std::uint64_t>(i) * kRecordBytes;
            device_.write(o, zeros.data(), zeros.size());
            device_.flushRange(o, kRecordBytes);
        }
        device_.sfence();
    }
    stats.tornRecords = torn.size();

    firstSeq_ = stats.maxSeq + 1;
    nextSeq_.store(firstSeq_, std::memory_order_relaxed);
    return stats;
}

void
FlightRecorder::encodeRecord(std::uint8_t *buf, const FlightRecord &rec)
{
    std::memset(buf, 0, kRecordBytes);
    storeU64(buf + 0, rec.seq);
    buf[8] = static_cast<std::uint8_t>(rec.type);
    buf[9] = rec.engine;
    storeU16(buf + 10, rec.flags);
    storeU32(buf + 12, rec.pageId);
    storeU64(buf + 16, rec.txid);
    storeU64(buf + 24, rec.aux);
    storeU64(buf + 32, rec.modelNs);
    storeU32(buf + 60, crc32c(buf, 60));
}

void
FlightRecorder::append(FlightEventType type, std::uint8_t engine,
                       std::uint64_t txid, PageId pageId,
                       std::uint64_t aux)
{
    // A crashed device accepts no writes; the abort records emitted by
    // transaction destructors while a simulated crash unwinds must be
    // dropped (a real power cut drops them with the rest of the cache).
    if (capacity_ == 0 || device_.crashed())
        return;
    FlightRecord rec;
    rec.seq = nextSeq_.fetch_add(1, std::memory_order_relaxed);
    rec.type = type;
    rec.engine = engine;
    rec.pageId = pageId;
    rec.txid = txid;
    rec.aux = aux;
    rec.modelNs = pm::threadModelNs();

    std::array<std::uint8_t, kRecordBytes> buf;
    encodeRecord(buf.data(), rec);

    // One store + one flush + one fence: the record is durable before
    // append() returns, so a surrounding checker transaction sees this
    // line FENCED by its commit point.
    pm::SiteScope site(device_, "FlightRecorder::append");
    PmOffset o = slotOffset(rec.seq);
    device_.write(o, buf.data(), buf.size());
    device_.flushRange(o, kRecordBytes);
    device_.sfence();
}

bool
FlightRecorder::decodeSlot(const std::uint8_t *slot, FlightRecord &out,
                           bool *torn)
{
    if (torn)
        *torn = false;
    bool all_zero = true;
    for (std::size_t i = 0; i < kRecordBytes; ++i) {
        if (slot[i] != 0) {
            all_zero = false;
            break;
        }
    }
    if (all_zero)
        return false; // never written
    if (loadU32(slot + 60) != crc32c(slot, 60) ||
        loadU64(slot + 0) == 0) {
        if (torn)
            *torn = true;
        return false;
    }
    out.seq = loadU64(slot + 0);
    out.type = static_cast<FlightEventType>(slot[8]);
    out.engine = slot[9];
    out.flags = loadU16(slot + 10);
    out.pageId = loadU32(slot + 12);
    out.txid = loadU64(slot + 16);
    out.aux = loadU64(slot + 24);
    out.modelNs = loadU64(slot + 32);
    return true;
}

std::vector<FlightRecord>
FlightRecorder::decodeRegion(const std::uint8_t *region,
                             std::uint64_t len,
                             std::vector<std::uint32_t> *tornSlots)
{
    std::vector<FlightRecord> records;
    if (len < kHeaderBytes)
        return records;
    if (loadU64(region) != kMagic ||
        loadU32(region + 20) != crc32c(region, 20)) {
        return records;
    }
    std::uint32_t capacity = loadU32(region + 16);
    std::uint64_t body = static_cast<std::uint64_t>(capacity) *
                         kRecordBytes;
    if (capacity == 0 || kHeaderBytes + body > len)
        return records;

    for (std::uint32_t i = 0; i < capacity; ++i) {
        const std::uint8_t *slot =
            region + kHeaderBytes +
            static_cast<std::uint64_t>(i) * kRecordBytes;
        FlightRecord rec;
        bool torn = false;
        if (decodeSlot(slot, rec, &torn)) {
            records.push_back(rec);
        } else if (torn && tornSlots) {
            tornSlots->push_back(i);
        }
    }
    std::sort(records.begin(), records.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });
    return records;
}

} // namespace fasp::obs
