#include "forensics.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "../common/mini_json.h"
#include "common/byte_io.h"
#include "common/crc32.h"

namespace fasp::forensics {

namespace {

// Durable format constants, mirrored from the writers (superblock.cc,
// slot_header_log.cc, journal.h, nv_heap.h, legacy_wal.cc). Forensics
// deliberately re-derives the layouts from first principles instead of
// instantiating the managers: the tool must decode images the managers
// themselves would refuse to open.
constexpr std::uint64_t kSuperblockMagic = 0x4641535044423031ull;
constexpr std::uint64_t kSlotHeaderLogMagic = 0x4653484c4f473031ull;
constexpr std::uint64_t kLegacyWalMagic = 0x4c57414c4c4f4731ull;
constexpr std::uint64_t kNvHeapMagic = 0x4e56484541503031ull;
constexpr std::uint32_t kJournalMagic = 0x4a524e4cu;

constexpr std::uint32_t kNvStateEnd = 0;
constexpr std::uint32_t kNvStateAllocated = 0xa110ca7e;
constexpr std::uint32_t kNvStateFree = 0xf4eeb10c;

SuperblockInfo
decodeSuperblock(const std::uint8_t *data, std::size_t len)
{
    SuperblockInfo sb;
    if (len < 64)
        return sb;
    if (loadU64(data) != kSuperblockMagic)
        return sb;
    sb.present = true;
    sb.version = loadU32(data + 8);
    sb.crcOk = loadU32(data + 60) == crc32c(data, 60);
    sb.pageSize = loadU32(data + 12);
    sb.pageCount = loadU32(data + 16);
    sb.bitmapPages = loadU32(data + 20);
    sb.directoryPid = loadU32(data + 24);
    sb.logOff = loadU64(data + 28);
    sb.logLen = loadU64(data + 36);
    sb.frOff = loadU64(data + 44);
    sb.frLen = loadU64(data + 52);
    return sb;
}

/** FAST/FASH slot-header log: 20-byte header, [u16 type][u16 len]
 *  entries from +64, commit entry carries txid + epoch + running CRC
 *  over every prior entry byte. */
void
decodeSlotHeaderLog(const std::uint8_t *log, std::uint64_t len,
                    LogInfo &out)
{
    out.family = "slot-header-log";
    out.epoch = loadU64(log + 8);
    out.headerOk = loadU32(log + 16) == crc32c(log, 16);

    std::uint64_t cursor = 64;
    std::uint32_t running_crc = 0;
    while (cursor + 4 <= len) {
        std::uint16_t type = loadU16(log + cursor);
        std::uint16_t body_len = loadU16(log + cursor + 2);
        if (type == 0 || type > 4)
            break;
        if (cursor + 4 + body_len > len) {
            out.tornTail++;
            break;
        }
        out.entries++;
        if (type == 4 && body_len == 20) {
            const std::uint8_t *body = log + cursor + 4;
            std::uint64_t txid = loadU64(body);
            std::uint64_t epoch = loadU64(body + 8);
            std::uint32_t crc = loadU32(body + 16);
            if (epoch == out.epoch && crc == running_crc) {
                out.commits++;
                out.committedTxids.push_back(txid);
            } else {
                out.tornTail++;
            }
        }
        running_crc = crc32c(log + cursor, 4 + body_len, running_crc);
        cursor += 4 + body_len;
    }
}

/** Rollback journal: 16-byte header {magic, count, crc}; count > 0
 *  means the journal is sealed and an in-place update was cut short
 *  (recovery will roll it back). */
void
decodeJournal(const std::uint8_t *log, std::uint64_t len,
              std::uint32_t pageSize, LogInfo &out)
{
    out.family = "journal";
    std::uint32_t count = loadU32(log + 4);
    std::uint32_t crc = loadU32(log + 8);
    out.entries = count;
    out.sealed = count != 0;
    if (count == 0 || pageSize == 0) {
        out.headerOk = count == 0;
        return;
    }
    std::uint64_t entry_bytes =
        static_cast<std::uint64_t>(8 + pageSize) * count;
    if (64 + entry_bytes > len) {
        out.headerOk = false; // header claims more than the region
        out.tornTail++;
        return;
    }
    out.headerOk = crc == crc32c(log + 64, entry_bytes);
    if (!out.headerOk)
        out.tornTail++;
}

/** NVWAL heap: 16-byte blocks from +16, allocated blocks hold frame
 *  payloads {u32 kind, u64 txid, ...}; commit frames are 24 bytes
 *  (CRC over the first 20). */
void
decodeNvwal(const std::uint8_t *log, std::uint64_t len, LogInfo &out)
{
    out.family = "nvwal";
    out.headerOk = true;
    std::uint64_t cursor = 16;
    while (cursor + 16 <= len) {
        std::uint32_t state = loadU32(log + cursor);
        std::uint32_t size = loadU32(log + cursor + 4);
        if (state == kNvStateEnd)
            break;
        if ((state != kNvStateAllocated && state != kNvStateFree) ||
            cursor + 16 + size > len) {
            out.tornTail++;
            break;
        }
        out.entries++;
        if (state == kNvStateAllocated && size >= 24) {
            const std::uint8_t *p = log + cursor + 16;
            std::uint32_t kind = loadU32(p);
            if (kind == 2 && loadU32(p + 20) == crc32c(p, 20)) {
                out.commits++;
                out.committedTxids.push_back(loadU64(p + 4));
            }
        }
        cursor += 16 + size;
    }
}

/** Legacy WAL: 20-byte header {magic, epoch, crc}; 32-byte frame
 *  headers from +64; data frames carry a full page. */
void
decodeLegacyWal(const std::uint8_t *log, std::uint64_t len,
                std::uint32_t pageSize, LogInfo &out)
{
    out.family = "legacy-wal";
    out.epoch = loadU64(log + 8);
    out.headerOk = loadU32(log + 16) == crc32c(log, 16);
    if (pageSize == 0)
        return;

    std::uint64_t cursor = 64;
    while (cursor + 32 <= len) {
        const std::uint8_t *head = log + cursor;
        std::uint32_t kind = loadU32(head);
        if (kind == 0)
            break;
        if (kind != 1 && kind != 2)
            break; // stale garbage past the log tail
        if (loadU64(head + 16) != out.epoch)
            break; // frame from before the last truncation
        std::uint32_t crc = crc32c(head, 28);
        if (kind == 1) {
            if (cursor + 32 + pageSize > len) {
                out.tornTail++;
                break;
            }
            crc = crc32c(head + 32, pageSize, crc);
        }
        if (crc != loadU32(head + 28)) {
            out.tornTail++;
            break;
        }
        out.entries++;
        if (kind == 2) {
            out.commits++;
            out.committedTxids.push_back(loadU64(head + 8));
            cursor += 32;
        } else {
            cursor += 32 + static_cast<std::uint64_t>(pageSize);
        }
    }
}

LogInfo
decodeLogRegion(const std::uint8_t *data, std::size_t len,
                const SuperblockInfo &sb)
{
    LogInfo out;
    if (!sb.present || sb.logLen < 64 || sb.logOff + sb.logLen > len)
        return out;
    const std::uint8_t *log = data + sb.logOff;
    std::uint64_t magic = loadU64(log);
    if (magic == kSlotHeaderLogMagic)
        decodeSlotHeaderLog(log, sb.logLen, out);
    else if (magic == kLegacyWalMagic)
        decodeLegacyWal(log, sb.logLen, sb.pageSize, out);
    else if (magic == kNvHeapMagic)
        decodeNvwal(log, sb.logLen, out);
    else if (loadU32(log) == kJournalMagic)
        decodeJournal(log, sb.logLen, sb.pageSize, out);
    else
        out.family = "unknown";
    return out;
}

TimelineInfo
decodeTimeline(const std::uint8_t *data, std::size_t len,
               const SuperblockInfo &sb)
{
    TimelineInfo out;
    if (!sb.present || sb.frLen == 0 || sb.frOff + sb.frLen > len)
        return out;
    out.regionPresent = true;
    const std::uint8_t *region = data + sb.frOff;
    if (sb.frLen >= 64 && loadU64(region) == obs::FlightRecorder::kMagic) {
        out.headerOk =
            loadU32(region + 20) == crc32c(region, 20) &&
            loadU32(region + 8) == obs::FlightRecorder::kFormatVersion;
        out.capacity = loadU32(region + 16);
    }
    if (!out.headerOk)
        return out;
    out.records = obs::FlightRecorder::decodeRegion(region, sb.frLen,
                                                    &out.tornSlots);
    return out;
}

InflightInfo
inferInflight(const TimelineInfo &timeline)
{
    InflightInfo out;
    // Per-txid open OpBegin; resolved by CommitPoint/Abort. Records
    // arrive in sequence order, so "last writer wins" is correct.
    struct Open
    {
        std::uint64_t seq;
        std::uint8_t engine;
    };
    std::unordered_map<std::uint64_t, Open> open;
    std::uint64_t recovery_depth = 0;
    for (const obs::FlightRecord &rec : timeline.records) {
        switch (rec.type) {
          case obs::FlightEventType::OpBegin:
            open[rec.txid] = Open{rec.seq, rec.engine};
            break;
          case obs::FlightEventType::CommitPoint:
            out.lastCommittedTxid = rec.txid;
            open.erase(rec.txid);
            break;
          case obs::FlightEventType::Abort:
            open.erase(rec.txid);
            break;
          case obs::FlightEventType::RecoveryBegin:
            recovery_depth++;
            break;
          case obs::FlightEventType::RecoveryEnd:
            if (recovery_depth > 0)
                recovery_depth--;
            break;
          default:
            break; // Fallback / PageSplit / Defrag don't change state
        }
    }
    out.recoveryInterrupted = recovery_depth > 0;
    // The crash interrupts at most one op per thread; report the
    // latest-begun unresolved one (single-threaded crash tests have
    // exactly zero or one).
    for (const auto &[txid, o] : open) {
        if (!out.found || o.seq > out.beginSeq) {
            out.found = true;
            out.txid = txid;
            out.engineCode = o.engine;
            out.beginSeq = o.seq;
        }
    }
    return out;
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    out += minijson::jsonEscape(s);
    out += '"';
}

const char *
boolStr(bool v)
{
    return v ? "true" : "false";
}

} // namespace

const char *
engineCodeName(std::uint8_t code)
{
    // code = core::EngineKind + 1 (flight_recorder.h).
    switch (code) {
      case 1: return "FAST";
      case 2: return "FASH";
      case 3: return "NVWAL";
      case 4: return "LegacyWAL";
      case 5: return "Journal";
    }
    return "unknown";
}

CrashReport
analyzeImage(const std::uint8_t *data, std::size_t len)
{
    CrashReport report;
    report.imageBytes = len;
    report.sb = decodeSuperblock(data, len);
    report.log = decodeLogRegion(data, len, report.sb);
    report.timeline = decodeTimeline(data, len, report.sb);
    report.inflight = inferInflight(report.timeline);
    return report;
}

std::string
reportToJson(const CrashReport &report)
{
    std::string out;
    out += "{\n  \"tool\": \"fasp-forensics\",\n";
    out += "  \"schema_version\": 1,\n";
    out += "  \"image_bytes\": " + std::to_string(report.imageBytes);

    const SuperblockInfo &sb = report.sb;
    out += ",\n  \"superblock\": {\"present\": ";
    out += boolStr(sb.present);
    out += ", \"crc_ok\": ";
    out += boolStr(sb.crcOk);
    out += ", \"version\": " + std::to_string(sb.version);
    out += ", \"page_size\": " + std::to_string(sb.pageSize);
    out += ", \"page_count\": " + std::to_string(sb.pageCount);
    out += ", \"bitmap_pages\": " + std::to_string(sb.bitmapPages);
    out += ", \"directory_pid\": " + std::to_string(sb.directoryPid);
    out += ", \"log_off\": " + std::to_string(sb.logOff);
    out += ", \"log_len\": " + std::to_string(sb.logLen);
    out += ", \"fr_off\": " + std::to_string(sb.frOff);
    out += ", \"fr_len\": " + std::to_string(sb.frLen);
    out += "}";

    const LogInfo &log = report.log;
    out += ",\n  \"log\": {\"family\": ";
    appendJsonString(out, log.family);
    out += ", \"header_ok\": ";
    out += boolStr(log.headerOk);
    out += ", \"epoch\": " + std::to_string(log.epoch);
    out += ", \"entries\": " + std::to_string(log.entries);
    out += ", \"commits\": " + std::to_string(log.commits);
    out += ", \"torn_tail\": " + std::to_string(log.tornTail);
    out += ", \"sealed\": ";
    out += boolStr(log.sealed);
    out += ", \"committed_txids\": [";
    for (std::size_t i = 0; i < log.committedTxids.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(log.committedTxids[i]);
    }
    out += "]}";

    const TimelineInfo &tl = report.timeline;
    out += ",\n  \"flight_recorder\": {\"region_present\": ";
    out += boolStr(tl.regionPresent);
    out += ", \"header_ok\": ";
    out += boolStr(tl.headerOk);
    out += ", \"capacity\": " + std::to_string(tl.capacity);
    out += ", \"torn_slots\": [";
    for (std::size_t i = 0; i < tl.tornSlots.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(tl.tornSlots[i]);
    }
    out += "], \"records\": [";
    for (std::size_t i = 0; i < tl.records.size(); ++i) {
        const obs::FlightRecord &rec = tl.records[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"seq\": " + std::to_string(rec.seq);
        out += ", \"type\": ";
        appendJsonString(out, obs::flightEventTypeName(rec.type));
        out += ", \"engine\": ";
        appendJsonString(out, engineCodeName(rec.engine));
        out += ", \"txid\": " + std::to_string(rec.txid);
        out += ", \"page\": " + std::to_string(rec.pageId);
        out += ", \"aux\": " + std::to_string(rec.aux);
        out += ", \"model_ns\": " + std::to_string(rec.modelNs);
        out += "}";
    }
    if (!tl.records.empty())
        out += "\n  ";
    out += "]}";

    const InflightInfo &inf = report.inflight;
    out += ",\n  \"inflight\": {\"found\": ";
    out += boolStr(inf.found);
    out += ", \"txid\": " + std::to_string(inf.txid);
    out += ", \"engine\": ";
    appendJsonString(out, engineCodeName(inf.engineCode));
    out += ", \"begin_seq\": " + std::to_string(inf.beginSeq);
    out += ", \"recovery_interrupted\": ";
    out += boolStr(inf.recoveryInterrupted);
    out += ", \"last_committed_txid\": " +
           std::to_string(inf.lastCommittedTxid);
    out += "}\n}\n";
    return out;
}

std::string
reportToText(const CrashReport &report)
{
    char buf[256];
    std::string out;
    auto line = [&out, &buf](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof buf, fmt, args...);
        out += buf;
        out += '\n';
    };

    line("image: %llu bytes",
         static_cast<unsigned long long>(report.imageBytes));

    const SuperblockInfo &sb = report.sb;
    if (!sb.present) {
        line("superblock: MISSING (no magic at offset 0)");
        return out;
    }
    line("superblock: v%u, crc %s", sb.version,
         sb.crcOk ? "ok" : "BAD");
    line("  pages: %u x %u B (bitmap %u, directory pid %u)",
         sb.pageCount, sb.pageSize, sb.bitmapPages, sb.directoryPid);
    line("  log region: off=%llu len=%llu",
         static_cast<unsigned long long>(sb.logOff),
         static_cast<unsigned long long>(sb.logLen));
    line("  flight recorder: off=%llu len=%llu",
         static_cast<unsigned long long>(sb.frOff),
         static_cast<unsigned long long>(sb.frLen));

    const LogInfo &log = report.log;
    line("log: family=%s header=%s epoch=%llu", log.family.c_str(),
         log.headerOk ? "ok" : "BAD",
         static_cast<unsigned long long>(log.epoch));
    line("  entries=%llu commits=%llu torn_tail=%llu sealed=%s",
         static_cast<unsigned long long>(log.entries),
         static_cast<unsigned long long>(log.commits),
         static_cast<unsigned long long>(log.tornTail),
         log.sealed ? "yes" : "no");
    if (!log.committedTxids.empty()) {
        out += "  committed txids:";
        for (std::uint64_t txid : log.committedTxids)
            out += " " + std::to_string(txid);
        out += '\n';
    }

    const TimelineInfo &tl = report.timeline;
    if (!tl.regionPresent) {
        line("flight recorder: no region in this image");
    } else if (!tl.headerOk) {
        line("flight recorder: region present but header undecodable");
    } else {
        line("flight recorder: capacity=%u records=%zu torn_slots=%zu",
             tl.capacity, tl.records.size(), tl.tornSlots.size());
        for (const obs::FlightRecord &rec : tl.records) {
            line("  #%-6llu %-12s %-9s tx=%llu page=%u aux=%llu",
                 static_cast<unsigned long long>(rec.seq),
                 obs::flightEventTypeName(rec.type),
                 engineCodeName(rec.engine),
                 static_cast<unsigned long long>(rec.txid), rec.pageId,
                 static_cast<unsigned long long>(rec.aux));
        }
        for (std::uint32_t slot : tl.tornSlots)
            line("  slot %u: TORN (bad CRC, record ignored)", slot);
    }

    const InflightInfo &inf = report.inflight;
    if (inf.recoveryInterrupted)
        line("inflight: RECOVERY was interrupted by this crash");
    if (inf.found) {
        line("inflight: tx %llu (%s) begun at seq %llu never "
             "committed or aborted",
             static_cast<unsigned long long>(inf.txid),
             engineCodeName(inf.engineCode),
             static_cast<unsigned long long>(inf.beginSeq));
    } else {
        line("inflight: none (last committed tx %llu)",
             static_cast<unsigned long long>(inf.lastCommittedTxid));
    }
    return out;
}

} // namespace fasp::forensics
