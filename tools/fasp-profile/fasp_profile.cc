/**
 * @file
 * fasp-profile: render the span-profiler sections of a metrics JSON
 * export (schema_version >= 4) as a human-readable profile report.
 * Works from the export file alone — no access to the live process —
 * so a CI artifact or a file a user attaches to a bug report is enough
 * to read a p99 outlier down to its dominant sub-phase.
 *
 * Modes:
 *   fasp-profile <metrics.json>            text report to stdout
 *   fasp-profile --json <metrics.json>     condensed profile JSON to
 *                                          stdout (the CI artifact)
 *   fasp-profile --trace=OUT <metrics.json>
 *                                          chrome://tracing document:
 *                                          one track per outlier, its
 *                                          sub-phases laid end-to-end
 *   fasp-profile --stable <metrics.json>   text report restricted to
 *                                          deterministic fields (no
 *                                          wall/walk-clock ns, no
 *                                          outlier timings): byte-
 *                                          identical across repeated
 *                                          runs of a seeded
 *                                          single-client workload
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mini_json.h"

namespace {

using fasp::minijson::JsonParser;
using fasp::minijson::JsonValue;
using fasp::minijson::jsonEscape;

std::uint64_t
num(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->isNumber()
               ? static_cast<std::uint64_t>(std::llround(v->number))
               : 0;
}

std::string
str(const JsonValue &obj, const char *key, const char *fallback = "-")
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->kind == JsonValue::String ? v->str
                                                        : fallback;
}

/** 12345678 -> "12.35ms" etc.; keeps the tables narrow. */
std::string
fmtNs(std::uint64_t ns)
{
    char buf[32];
    if (ns >= 10'000'000'000ull)
        std::snprintf(buf, sizeof buf, "%.1fs", double(ns) / 1e9);
    else if (ns >= 10'000'000ull)
        std::snprintf(buf, sizeof buf, "%.2fms", double(ns) / 1e6);
    else if (ns >= 10'000ull)
        std::snprintf(buf, sizeof buf, "%.2fus", double(ns) / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%" PRIu64 "ns", ns);
    return buf;
}

/** Sorted (ns desc, name asc) non-zero entries of a phase_ns map. */
std::vector<std::pair<std::string, std::uint64_t>>
sortedPhases(const JsonValue &phaseNs)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto &[name, v] : phaseNs.fields) {
        if (v.isNumber() && v.number > 0)
            out.emplace_back(
                name,
                static_cast<std::uint64_t>(std::llround(v.number)));
    }
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second != b.second ? a.second > b.second
                                    : a.first < b.first;
    });
    return out;
}

/** The page_heat entries a latch wait hit, most waits first (page
 *  ascending on ties; counts, not wall ns, so --stable can use it):
 *  the contended pages. */
std::vector<const JsonValue *>
contendedPages(const JsonValue &doc)
{
    std::vector<const JsonValue *> out;
    const JsonValue *heat = doc.find("page_heat");
    const JsonValue *top = heat != nullptr ? heat->find("top") : nullptr;
    if (top == nullptr)
        return out;
    for (const JsonValue &pe : top->items) {
        if (num(pe, "latch_waits") > 0)
            out.push_back(&pe);
    }
    std::sort(out.begin(), out.end(),
              [](const JsonValue *a, const JsonValue *b) {
                  std::uint64_t wa = num(*a, "latch_waits");
                  std::uint64_t wb = num(*b, "latch_waits");
                  return wa != wb ? wa > wb
                                  : num(*a, "page") < num(*b, "page");
              });
    return out;
}

// --- Text report -----------------------------------------------------------

/** @p stable: print only fields that are deterministic for a seeded
 *  single-client run (counts, modelled ns, page heat) and none that
 *  depend on the host's wall clock or scheduling. */
void
printText(const JsonValue &doc, bool stable)
{
    std::printf("fasp-profile: bench=%s schema=%" PRIu64 "\n",
                str(doc, "bench").c_str(), num(doc, "schema_version"));

    const JsonValue *spans = doc.find("spans");
    const JsonValue *engines =
        spans != nullptr ? spans->find("engines") : nullptr;
    std::printf("\n== transaction spans ==\n");
    if (engines == nullptr || engines->fields.empty()) {
        std::printf("(no spans recorded)\n");
    } else {
        for (const auto &[name, es] : engines->fields) {
            std::printf("%-8s spans=%-6" PRIu64 " commits=%-6" PRIu64
                        " aborts=%-4" PRIu64,
                        name.c_str(), num(es, "spans"),
                        num(es, "commits"), num(es, "aborts"));
            if (!stable) {
                const JsonValue *wall = es.find("wall_ns");
                if (wall != nullptr) {
                    std::printf(
                        " wall p50=%s p95=%s p99=%s max=%s",
                        fmtNs(num(*wall, "p50")).c_str(),
                        fmtNs(num(*wall, "p95")).c_str(),
                        fmtNs(num(*wall, "p99")).c_str(),
                        fmtNs(num(*wall, "max")).c_str());
                }
            }
            std::printf("\n         model_ns=%" PRIu64
                        " flushes=%" PRIu64 " fences=%" PRIu64
                        " wal=%" PRIu64 " pcas=%" PRIu64 "/%" PRIu64
                        "/%" PRIu64 " splits=%" PRIu64
                        " defrags=%" PRIu64 " pages=%" PRIu64
                        "/%" PRIu64 "\n",
                        num(es, "model_ns"), num(es, "flushes"),
                        num(es, "fences"), num(es, "wal_appends"),
                        num(es, "pcas_attempts"),
                        num(es, "pcas_retries"), num(es, "pcas_helps"),
                        num(es, "splits"), num(es, "defrags"),
                        num(es, "page_accesses"),
                        num(es, "page_dirty"));
            if (!stable) {
                const JsonValue *ph = es.find("phase_ns");
                if (ph != nullptr) {
                    std::uint64_t total = 0;
                    for (const auto &[n, ns] : sortedPhases(*ph))
                        total += ns;
                    for (const auto &[n, ns] : sortedPhases(*ph)) {
                        std::printf(
                            "           %-22s %10s %5.1f%%\n",
                            n.c_str(), fmtNs(ns).c_str(),
                            total != 0 ? 100.0 * double(ns) /
                                             double(total)
                                       : 0.0);
                    }
                }
            }
        }
    }

    const JsonValue *latch = doc.find("latch_contention");
    std::printf("\n== latch contention ==\n");
    if (latch != nullptr) {
        std::printf("waits=%" PRIu64 " conflicts=%" PRIu64,
                    num(*latch, "total_waits"),
                    num(*latch, "total_conflicts"));
        const JsonValue *hist = latch->find("hist");
        if (!stable && hist != nullptr) {
            std::printf(" wait p95=%s p99=%s max=%s",
                        fmtNs(num(*hist, "p95")).c_str(),
                        fmtNs(num(*hist, "p99")).c_str(),
                        fmtNs(num(*hist, "max")).c_str());
        }
        std::printf("\n");
        auto pages = contendedPages(doc);
        if (!pages.empty()) {
            std::printf("%10s %8s %10s", "page", "waits", "conflicts");
            if (!stable)
                std::printf(" %12s", "wait_ns");
            std::printf("\n");
            for (const JsonValue *pe : pages) {
                std::printf("%10" PRIu64 " %8" PRIu64 " %10" PRIu64,
                            num(*pe, "page"), num(*pe, "latch_waits"),
                            num(*pe, "conflicts"));
                if (!stable)
                    std::printf(" %12" PRIu64, num(*pe, "latch_wait_ns"));
                std::printf("\n");
            }
        }
    }

    const JsonValue *heat = doc.find("page_heat");
    std::printf("\n== page heat (top pages) ==\n");
    if (heat != nullptr) {
        std::printf("tracked=%" PRIu64 " overflow=%" PRIu64
                    " decays=%" PRIu64 "\n",
                    num(*heat, "tracked"), num(*heat, "overflow"),
                    num(*heat, "decays"));
        const JsonValue *top = heat->find("top");
        if (top != nullptr && !top->items.empty()) {
            std::printf("%10s %10s %8s %10s\n", "page", "accesses",
                        "dirty", "conflicts");
            for (const JsonValue &pe : top->items) {
                std::printf("%10" PRIu64 " %10" PRIu64 " %8" PRIu64
                            " %10" PRIu64 "\n",
                            num(pe, "page"), num(pe, "accesses"),
                            num(pe, "dirty"), num(pe, "conflicts"));
            }
        }
    }

    const JsonValue *outliers = doc.find("outliers");
    std::printf("\n== p99 outliers ==\n");
    if (outliers == nullptr || outliers->items.empty()) {
        std::printf("(none captured)\n");
        return;
    }
    if (stable) {
        // Which transactions land in the reservoir is a wall-clock
        // ranking; only the capture count per engine is stable.
        std::map<std::string, int> perEngine;
        for (const JsonValue &o : outliers->items)
            perEngine[str(o, "engine")]++;
        for (const auto &[eng, n] : perEngine)
            std::printf("%-8s captured=%d\n", eng.c_str(), n);
        return;
    }
    int rank = 0;
    for (const JsonValue &o : outliers->items) {
        std::uint64_t wall = num(o, "wall_ns");
        std::printf("#%-2d %-8s tx=%" PRIu64 " wall=%s %s path=%s\n",
                    ++rank, str(o, "engine").c_str(), num(o, "tx_id"),
                    fmtNs(wall).c_str(),
                    o.find("committed") != nullptr &&
                            o.find("committed")->boolean
                        ? "committed"
                        : "aborted",
                    str(o, "commit_path", "-").c_str());
        const JsonValue *ph = o.find("phase_ns");
        if (ph != nullptr) {
            for (const auto &[n, ns] : sortedPhases(*ph)) {
                std::printf("      %-22s %10s %5.1f%%\n", n.c_str(),
                            fmtNs(ns).c_str(),
                            wall != 0
                                ? 100.0 * double(ns) / double(wall)
                                : 0.0);
            }
        }
        std::printf("      latch: waits=%" PRIu64 " wait=%s"
                    " conflicts=%" PRIu64 " hot_page=%" PRIu64
                    " (%s)\n",
                    num(o, "latch_waits"),
                    fmtNs(num(o, "latch_wait_ns")).c_str(),
                    num(o, "latch_conflicts"),
                    num(o, "hot_latch_page"),
                    fmtNs(num(o, "hot_latch_wait_ns")).c_str());
        std::printf("      pm: model=%s flushes=%" PRIu64
                    " fences=%" PRIu64 " wal=%" PRIu64
                    " pcas=%" PRIu64 "/%" PRIu64 "/%" PRIu64
                    " pages=%" PRIu64 "/%" PRIu64 "\n",
                    fmtNs(num(o, "model_ns")).c_str(),
                    num(o, "flushes"), num(o, "fences"),
                    num(o, "wal_appends"), num(o, "pcas_attempts"),
                    num(o, "pcas_retries"), num(o, "pcas_helps"),
                    num(o, "page_accesses"), num(o, "page_dirty"));
    }
}

// --- JSON artifact ---------------------------------------------------------

/** Condensed profile (the CI artifact): per-engine totals, the latch
 *  totals and contended pages, the hot pages, and the outlier
 *  headlines (dominant phase per outlier). */
void
printJson(const JsonValue &doc)
{
    std::string out = "{\"tool\": \"fasp-profile\", \"bench\": \"" +
        jsonEscape(str(doc, "bench")) + "\"";
    out += ", \"schema_version\": " +
        std::to_string(num(doc, "schema_version"));

    out += ", \"engines\": [";
    const JsonValue *spans = doc.find("spans");
    const JsonValue *engines =
        spans != nullptr ? spans->find("engines") : nullptr;
    bool first = true;
    if (engines != nullptr) {
        for (const auto &[name, es] : engines->fields) {
            if (!first)
                out += ", ";
            first = false;
            out += "{\"engine\": \"" + jsonEscape(name) + "\"";
            const JsonValue *wall = es.find("wall_ns");
            out += ", \"spans\": " + std::to_string(num(es, "spans"));
            out += ", \"commits\": " +
                std::to_string(num(es, "commits"));
            out += ", \"aborts\": " + std::to_string(num(es, "aborts"));
            out += ", \"wall_p99_ns\": " +
                std::to_string(wall != nullptr ? num(*wall, "p99") : 0);
            out += ", \"latch_wait_ns\": " +
                std::to_string(num(es, "latch_wait_ns"));
            out += ", \"pcas_retries\": " +
                std::to_string(num(es, "pcas_retries"));
            std::string dominant = "-";
            std::uint64_t dominant_ns = 0;
            if (const JsonValue *ph = es.find("phase_ns")) {
                auto sorted = sortedPhases(*ph);
                if (!sorted.empty()) {
                    dominant = sorted.front().first;
                    dominant_ns = sorted.front().second;
                }
            }
            out += ", \"dominant_phase\": \"" + jsonEscape(dominant) +
                "\"";
            out += ", \"dominant_phase_ns\": " +
                std::to_string(dominant_ns);
            out += "}";
        }
    }
    out += "]";

    const JsonValue *latch = doc.find("latch_contention");
    out += ", \"latch\": {\"waits\": " +
        std::to_string(latch != nullptr ? num(*latch, "total_waits")
                                        : 0) +
        ", \"conflicts\": " +
        std::to_string(
            latch != nullptr ? num(*latch, "total_conflicts") : 0) +
        ", \"contended_pages\": [";
    auto pages = contendedPages(doc);
    for (std::size_t i = 0; i < pages.size(); ++i) {
        const JsonValue &pe = *pages[i];
        out += std::string(i != 0 ? ", " : "") + "{\"page\": " +
            std::to_string(num(pe, "page")) + ", \"waits\": " +
            std::to_string(num(pe, "latch_waits")) +
            ", \"conflicts\": " + std::to_string(num(pe, "conflicts")) +
            ", \"wait_ns\": " +
            std::to_string(num(pe, "latch_wait_ns")) + "}";
    }
    out += "]}";

    out += ", \"hot_pages\": [";
    const JsonValue *heat = doc.find("page_heat");
    const JsonValue *top =
        heat != nullptr ? heat->find("top") : nullptr;
    if (top != nullptr) {
        for (std::size_t i = 0; i < top->items.size(); ++i) {
            if (i != 0)
                out += ", ";
            const JsonValue &pe = top->items[i];
            out += "{\"page\": " + std::to_string(num(pe, "page")) +
                ", \"accesses\": " +
                std::to_string(num(pe, "accesses")) +
                ", \"conflicts\": " +
                std::to_string(num(pe, "conflicts")) + "}";
        }
    }
    out += "]";

    out += ", \"outliers\": [";
    const JsonValue *outliers = doc.find("outliers");
    if (outliers != nullptr) {
        for (std::size_t i = 0; i < outliers->items.size(); ++i) {
            if (i != 0)
                out += ", ";
            const JsonValue &o = outliers->items[i];
            out += "{\"engine\": \"" + jsonEscape(str(o, "engine")) +
                "\"";
            out += ", \"tx_id\": " + std::to_string(num(o, "tx_id"));
            out += ", \"wall_ns\": " +
                std::to_string(num(o, "wall_ns"));
            std::string dominant = "-";
            std::uint64_t dominant_ns = 0;
            if (const JsonValue *ph = o.find("phase_ns")) {
                auto sorted = sortedPhases(*ph);
                if (!sorted.empty()) {
                    dominant = sorted.front().first;
                    dominant_ns = sorted.front().second;
                }
            }
            out += ", \"dominant_phase\": \"" + jsonEscape(dominant) +
                "\"";
            out += ", \"dominant_phase_ns\": " +
                std::to_string(dominant_ns);
            out += "}";
        }
    }
    out += "]}\n";
    std::fputs(out.c_str(), stdout);
}

// --- chrome://tracing ------------------------------------------------------

/** One track (tid) per outlier: the span, then its sub-phases laid
 *  end-to-end as complete events. The span profiler records per-phase
 *  totals, not per-phase intervals, so the layout shows attribution,
 *  not true interleaving. */
bool
writeChromeTrace(const JsonValue &doc, const std::string &path)
{
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    const JsonValue *outliers = doc.find("outliers");
    int tid = 0;
    if (outliers != nullptr) {
        for (const JsonValue &o : outliers->items) {
            ++tid;
            std::uint64_t cursorUs = 0;
            std::string eng = str(o, "engine");
            auto emit = [&](const std::string &name,
                            std::uint64_t durUs, const char *cat) {
                if (durUs == 0)
                    durUs = 1;
                out += first ? "\n" : ",\n";
                first = false;
                out += "  {\"name\": \"" + jsonEscape(name) + "\"";
                out += ", \"cat\": \"" + std::string(cat) +
                    "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
                    std::to_string(tid) +
                    ", \"ts\": " + std::to_string(cursorUs) +
                    ", \"dur\": " + std::to_string(durUs) +
                    ", \"args\": {\"engine\": \"" + eng + "\"}}";
                cursorUs += durUs;
            };
            std::string label = eng + " tx " +
                std::to_string(num(o, "tx_id")) + " (" +
                fmtNs(num(o, "wall_ns")) + ")";
            emit(label, num(o, "wall_ns") / 1000, "span");
            cursorUs = 0;
            if (const JsonValue *ph = o.find("phase_ns")) {
                for (const auto &[n, ns] : sortedPhases(*ph))
                    emit(n, ns / 1000, "phase");
            }
        }
    }
    if (!first)
        out += "\n";
    out += "]}\n";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        std::fprintf(stderr, "fasp-profile: cannot write %s\n",
                     path.c_str());
        return false;
    }
    f << out;
    return f.good();
}

} // namespace

int
main(int argc, char **argv)
{
    bool stable = false;
    bool json = false;
    std::string trace_path;
    std::string input;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--stable") {
            stable = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_path = arg.substr(8);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "fasp-profile: unknown option %s\n"
                         "usage: fasp-profile [--stable] [--json] "
                         "[--trace=OUT] <metrics.json>\n",
                         arg.c_str());
            return 2;
        } else {
            input = arg;
        }
    }
    if (input.empty()) {
        std::fprintf(stderr, "usage: fasp-profile [--stable] [--json] "
                             "[--trace=OUT] <metrics.json>\n");
        return 2;
    }

    std::ifstream in(input, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "fasp-profile: cannot open %s\n",
                     input.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    JsonParser parser(text);
    auto doc = parser.parse();
    if (!doc) {
        std::fprintf(stderr, "fasp-profile: %s: malformed JSON: %s\n",
                     input.c_str(), parser.error().c_str());
        return 1;
    }
    std::uint64_t schema = num(*doc, "schema_version");
    if (schema < 4) {
        std::fprintf(stderr,
                     "fasp-profile: %s: schema_version %" PRIu64
                     " has no span sections (need >= 4)\n",
                     input.c_str(), schema);
        return 1;
    }

    if (!trace_path.empty())
        return writeChromeTrace(*doc, trace_path) ? 0 : 1;
    if (json)
        printJson(*doc);
    else
        printText(*doc, stable);
    return 0;
}
