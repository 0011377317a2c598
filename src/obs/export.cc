#include "obs/export.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace fasp::obs {

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

namespace {

void
appendU64(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
}

/** A `pm_phases` cell is exported only once a PM store, flush, fence
 *  or modelled ns was billed to it (not for wall time alone). */
bool
noPmCost(const pm::PmCell &cell)
{
    return cell.stores == 0 && cell.flushes == 0 && cell.fences == 0 &&
           cell.modelNs == 0;
}

void
appendCellJson(std::string &out, const pm::PmCell &cell)
{
    out += "{\"stores\": ";
    appendU64(out, cell.stores);
    out += ", \"store_bytes\": ";
    appendU64(out, cell.storeBytes);
    out += ", \"flushes\": ";
    appendU64(out, cell.flushes);
    out += ", \"fences\": ";
    appendU64(out, cell.fences);
    out += ", \"model_ns\": ";
    appendU64(out, cell.modelNs);
    out += "}";
}

/** Append a histogram snapshot as a flat JSON object (no buckets). */
void
appendHistJson(std::string &out, const HistogramSnapshot &snap)
{
    out += "{\"count\": ";
    appendU64(out, snap.count);
    out += ", \"sum\": ";
    appendU64(out, snap.sum);
    out += ", \"max\": ";
    appendU64(out, snap.max);
    out += ", \"p50\": ";
    appendU64(out, snap.p50);
    out += ", \"p95\": ";
    appendU64(out, snap.p95);
    out += ", \"p99\": ";
    appendU64(out, snap.p99);
    out += "}";
}

/** Append a span's per-component wall-ns map (non-zero phases only;
 *  index 0 renders under componentName(None) as the untagged rest). */
void
appendPhaseNsJson(std::string &out,
                  const std::array<std::uint64_t, pm::kNumComponents> &ns,
                  const char *indent)
{
    out += "{";
    bool first = true;
    for (std::size_t i = 0; i < pm::kNumComponents; ++i) {
        if (ns[i] == 0)
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += indent;
        appendJsonString(
            out, pm::componentName(static_cast<pm::Component>(i)));
        out += ": ";
        appendU64(out, ns[i]);
    }
    if (!first) {
        out += "\n";
        out.append(indent, std::strlen(indent) - 2);
    }
    out += "}";
}

/** Append @p ns as a decimal microsecond count (chrome://tracing's
 *  time unit), keeping nanosecond precision: 1234567 -> 1234.567. */
void
appendMicros(std::string &out, std::uint64_t ns)
{
    char frac[8];
    std::snprintf(frac, sizeof frac, ".%03u",
                  static_cast<unsigned>(ns % 1000));
    appendU64(out, ns / 1000);
    out += frac;
}

} // namespace

std::string
exportJson(const std::string &benchName, const PhaseLedger &ledger,
           const RecoveryLedger &recovery, const SpanProfiler *spans)
{
    std::string out;
    out += "{\n  \"bench\": ";
    appendJsonString(out, benchName);
    out += ",\n  \"schema_version\": 8";

    auto entries = ledger.entries();
    out += ",\n  \"counters\": {";
    bool first = true;
    for (const auto &entry : entries) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    ";
        appendJsonString(out, entry.engine);
        out += ": {";
        bool cfirst = true;
        for (const auto &[name, value] : entry.counters) {
            out += cfirst ? "\n" : ",\n";
            cfirst = false;
            out += "      ";
            appendJsonString(out, name);
            out += ": ";
            appendU64(out, value);
        }
        out += cfirst ? "}" : "\n    }";
    }
    out += first ? "}" : "\n  }";

    out += ",\n  \"pm_phases\": {";
    first = true;
    for (const auto &entry : entries) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    ";
        appendJsonString(out, entry.engine);
        out += ": {";
        bool pfirst = true;
        for (std::size_t i = 0; i < pm::kNumComponents; ++i) {
            const pm::PmCell &cell = entry.phases[i];
            if (noPmCost(cell))
                continue;
            out += pfirst ? "\n" : ",\n";
            pfirst = false;
            out += "      ";
            appendJsonString(
                out, pm::componentName(static_cast<pm::Component>(i)));
            out += ": ";
            appendCellJson(out, cell);
        }
        out += pfirst ? "}" : "\n    }";
    }
    out += first ? "}" : "\n  }";

    out += ",\n  \"pm_sites\": {";
    first = true;
    for (const auto &entry : entries) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    ";
        appendJsonString(out, entry.engine);
        out += ": {";
        bool sfirst = true;
        for (const auto &[site, cell] : entry.sites) {
            out += sfirst ? "\n" : ",\n";
            sfirst = false;
            out += "      ";
            appendJsonString(out, site);
            out += ": ";
            appendCellJson(out, cell);
        }
        out += sfirst ? "}" : "\n    }";
    }
    out += first ? "}" : "\n  }";

    out += ",\n  \"recovery\": {";
    first = true;
    for (const auto &rentry : recovery.entries()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    ";
        appendJsonString(out, rentry.engine);
        out += ": {\"recoveries\": ";
        appendU64(out, rentry.recoveries);
        out += ", \"pages_scanned\": ";
        appendU64(out, rentry.pagesScanned);
        out += ", \"records_replayed\": ";
        appendU64(out, rentry.recordsReplayed);
        out += ", \"records_discarded\": ";
        appendU64(out, rentry.recordsDiscarded);
        out += ", \"torn_records\": ";
        appendU64(out, rentry.tornRecords);
        out += ", \"phases\": {";
        for (std::size_t i = 0; i < kNumRecoveryPhases; ++i) {
            const HistogramSnapshot &snap = rentry.phases[i];
            out += i == 0 ? "\n" : ",\n";
            out += "      ";
            appendJsonString(
                out, recoveryPhaseName(static_cast<RecoveryPhase>(i)));
            out += ": {\"count\": ";
            appendU64(out, snap.count);
            out += ", \"sum\": ";
            appendU64(out, snap.sum);
            out += ", \"p50\": ";
            appendU64(out, snap.p50);
            out += ", \"p95\": ";
            appendU64(out, snap.p95);
            out += "}";
        }
        out += "\n    }}";
    }
    out += first ? "}" : "\n  }";

    // Span-profiler sections (schema v4+). Always present; a null
    // profiler (or a metrics-off run) just renders them empty.
    out += ",\n  \"spans\": {\"recorded\": ";
    appendU64(out, spans != nullptr ? spans->spansRecorded() : 0);
    out += ", \"ring_stats\": [";
    if (spans != nullptr) {
        auto srings = spans->ringStats();
        for (std::size_t i = 0; i < srings.size(); ++i) {
            const SpanRingStats &rs = srings[i];
            out += i == 0 ? "\n" : ",\n";
            out += "    {\"ring\": ";
            appendU64(out, rs.ring);
            out += ", \"capacity\": ";
            appendU64(out, rs.capacity);
            out += ", \"recorded\": ";
            appendU64(out, rs.recorded);
            out += ", \"dropped\": ";
            appendU64(out, rs.dropped);
            out += "}";
        }
        if (!srings.empty())
            out += "\n  ";
    }
    out += "], \"engines\": {";
    first = true;
    if (spans != nullptr) {
        for (const EngineSpanSummary &es : spans->engineSummaries()) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    ";
            appendJsonString(out,
                             es.engine != nullptr ? es.engine : "?");
            out += ": {\"spans\": ";
            appendU64(out, es.spans);
            out += ", \"commits\": ";
            appendU64(out, es.commits);
            out += ", \"aborts\": ";
            appendU64(out, es.aborts);
            out += ",\n      \"wall_ns\": ";
            appendHistJson(out, es.wallNs);
            out += ",\n      \"phase_ns\": ";
            appendPhaseNsJson(out, es.phaseNs, "        ");
            out += ",\n      \"latch_waits\": ";
            appendU64(out, es.latchWaits);
            out += ", \"latch_wait_ns\": ";
            appendU64(out, es.latchWaitNs);
            out += ", \"latch_conflicts\": ";
            appendU64(out, es.latchConflicts);
            out += ",\n      \"pcas_attempts\": ";
            appendU64(out, es.pcasAttempts);
            out += ", \"pcas_retries\": ";
            appendU64(out, es.pcasRetries);
            out += ", \"pcas_helps\": ";
            appendU64(out, es.pcasHelps);
            out += ",\n      \"flushes\": ";
            appendU64(out, es.flushes);
            out += ", \"fences\": ";
            appendU64(out, es.fences);
            out += ", \"model_ns\": ";
            appendU64(out, es.modelNs);
            out += ", \"wal_appends\": ";
            appendU64(out, es.walAppends);
            out += ",\n      \"splits\": ";
            appendU64(out, es.splits);
            out += ", \"defrags\": ";
            appendU64(out, es.defrags);
            out += ", \"page_accesses\": ";
            appendU64(out, es.pageAccesses);
            out += ", \"page_dirty\": ";
            appendU64(out, es.pageDirty);
            out += "}";
        }
    }
    out += first ? "}}" : "\n  }}";

    out += ",\n  \"latch_contention\": {\"total_waits\": ";
    appendU64(out, spans != nullptr ? spans->totalLatchWaits() : 0);
    out += ", \"total_conflicts\": ";
    appendU64(out,
              spans != nullptr ? spans->totalLatchConflicts() : 0);
    out += ", \"hist\": ";
    appendHistJson(out, spans != nullptr ? spans->latchWaitHist()
                                         : HistogramSnapshot{});
    out += "}";

    out += ",\n  \"page_heat\": {\"tracked\": ";
    PageHeatSnapshot heat;
    if (spans != nullptr)
        heat = spans->pageHeat();
    appendU64(out, heat.tracked);
    out += ", \"overflow\": ";
    appendU64(out, heat.overflow);
    out += ", \"decays\": ";
    appendU64(out, heat.decays);
    out += ", \"top\": [";
    for (std::size_t i = 0; i < heat.top.size(); ++i) {
        const PageHeatEntry &pe = heat.top[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"page\": ";
        appendU64(out, pe.page);
        out += ", \"accesses\": ";
        appendU64(out, pe.accesses);
        out += ", \"dirty\": ";
        appendU64(out, pe.dirty);
        out += ", \"conflicts\": ";
        appendU64(out, pe.conflicts);
        out += ", \"latch_waits\": ";
        appendU64(out, pe.latchWaits);
        out += ", \"latch_wait_ns\": ";
        appendU64(out, pe.latchWaitNs);
        out += "}";
    }
    if (!heat.top.empty())
        out += "\n  ";
    out += "]}";

    out += ",\n  \"outliers\": [";
    if (spans != nullptr) {
        auto outl = spans->outliers();
        for (std::size_t i = 0; i < outl.size(); ++i) {
            const TxSpan &sp = outl[i];
            out += i == 0 ? "\n" : ",\n";
            out += "    {\"engine\": ";
            appendJsonString(out,
                             sp.engine != nullptr ? sp.engine : "?");
            out += ", \"tx_id\": ";
            appendU64(out, sp.txId);
            out += ", \"committed\": ";
            out += sp.committed ? "true" : "false";
            out += ", \"commit_path\": ";
            if (sp.commitPath != nullptr)
                appendJsonString(out, sp.commitPath);
            else
                out += "null";
            out += ",\n     \"wall_ns\": ";
            appendU64(out, sp.wallNs);
            out += ", \"model_ns\": ";
            appendU64(out, sp.modelNs);
            out += ", \"begin_ns\": ";
            appendU64(out, sp.beginNs);
            out += ",\n     \"phase_ns\": ";
            appendPhaseNsJson(out, sp.phaseNs, "       ");
            out += ",\n     \"latch_waits\": ";
            appendU64(out, sp.latchWaits);
            out += ", \"latch_wait_ns\": ";
            appendU64(out, sp.latchWaitNs);
            out += ", \"latch_conflicts\": ";
            appendU64(out, sp.latchConflicts);
            out += ", \"hot_latch_page\": ";
            appendU64(out, sp.hotLatchPage);
            out += ", \"hot_latch_wait_ns\": ";
            appendU64(out, sp.hotLatchWaitNs);
            out += ",\n     \"pcas_attempts\": ";
            appendU64(out, sp.pcasAttempts);
            out += ", \"pcas_retries\": ";
            appendU64(out, sp.pcasRetries);
            out += ", \"pcas_helps\": ";
            appendU64(out, sp.pcasHelps);
            out += ", \"flushes\": ";
            appendU64(out, sp.flushes);
            out += ", \"fences\": ";
            appendU64(out, sp.fences);
            out += ", \"wal_appends\": ";
            appendU64(out, sp.walAppends);
            out += ",\n     \"splits\": ";
            appendU64(out, sp.splits);
            out += ", \"defrags\": ";
            appendU64(out, sp.defrags);
            out += ", \"page_accesses\": ";
            appendU64(out, sp.pageAccesses);
            out += ", \"page_dirty\": ";
            appendU64(out, sp.pageDirty);
            out += "}";
        }
        if (!outl.empty())
            out += "\n  ";
    }
    out += "]\n}\n";
    return out;
}

std::string
exportChromeTrace(const SpanProfiler &spans)
{
    // chrome://tracing "complete" (ph:"X") events at each span's real
    // steady-clock begin and wall duration; tid = span ring index, so
    // every recording thread gets its own track.
    std::string out = "{\"traceEvents\": [";
    auto retained = spans.retainedSpans();
    for (std::size_t i = 0; i < retained.size(); ++i) {
        const TxSpan &sp = retained[i].span;
        out += i == 0 ? "\n" : ",\n";
        out += "  {\"name\": ";
        appendJsonString(out, sp.committed
                                  ? (sp.commitPath != nullptr
                                         ? sp.commitPath
                                         : "commit")
                                  : "abort");
        out += ", \"cat\": ";
        appendJsonString(out, sp.engine != nullptr ? sp.engine : "?");
        out += ", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
        appendU64(out, retained[i].ring);
        out += ", \"ts\": ";
        appendMicros(out, sp.beginNs);
        out += ", \"dur\": ";
        appendMicros(out, sp.wallNs);
        out += ", \"args\": {\"tx_id\": ";
        appendU64(out, sp.txId);
        out += ", \"model_ns\": ";
        appendU64(out, sp.modelNs);
        out += ", \"flushes\": ";
        appendU64(out, sp.flushes);
        out += ", \"fences\": ";
        appendU64(out, sp.fences);
        out += ", \"latch_wait_ns\": ";
        appendU64(out, sp.latchWaitNs);
        out += "}}";
    }
    if (!retained.empty())
        out += "\n";
    out += "]}\n";
    return out;
}

bool
writeMetricsFile(const std::string &path, const std::string &benchName)
{
    std::string body =
        exportJson(benchName, PhaseLedger::global(),
                   RecoveryLedger::global(), &SpanProfiler::global());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "metrics: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    out << body;
    out.close();
    return out.good();
}

bool
writeTraceFile(const std::string &path)
{
    std::string body = exportChromeTrace(SpanProfiler::global());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "trace: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    out << body;
    out.close();
    return out.good();
}

} // namespace fasp::obs
