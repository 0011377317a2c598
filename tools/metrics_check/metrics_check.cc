/**
 * @file
 * Schema self-check for the bench harness's machine-readable outputs
 * (ISSUE 4 satellite 4). Runs a bench binary with --smoke --json
 * --metrics, then validates both files with the minimal JSON parser
 * shared across tools (tools/common/mini_json.h):
 *
 *  - the --json report: {"bench", "tables": [{title, columns, rows}]}
 *    with rectangular rows — the missing-field regression guard for
 *    the CI bench-smoke artifacts;
 *  - the --metrics export: schema_version 5, counters / gauges /
 *    histograms (complete summary fields), pm_phases / pm_sites /
 *    recovery sections, and the span profiler's spans /
 *    latch_contention / page_heat / outliers sections. A v4 leftover
 *    (a `trace` section, outlier `events` slices) is rejected.
 *
 * With --fig8, additionally asserts that the export alone reproduces
 * the paper's Figure-8 commit breakdown for FAST / FASH / NVWAL:
 * log-flush activity for all three, checkpointing for the logging
 * engines, and the atomic 64-B header write for FAST at exactly one
 * flush and one fence per in-place commit (paper §3.2).
 *
 * With --forensics, instead validates one or more fasp-forensics
 * --json reports (the CI crash-image artifacts) against the forensics
 * report schema.
 *
 * Usage: metrics_check [--fig8] <bench-binary> [work-dir]
 *        metrics_check --forensics <report.json>...
 */

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mini_json.h"

namespace {

using fasp::minijson::JsonParser;
using fasp::minijson::JsonValue;

// --- Check helpers -------------------------------------------------------

int g_failures = 0;

void
report(const std::string &what)
{
    std::fprintf(stderr, "metrics_check: FAIL: %s\n", what.c_str());
    ++g_failures;
}

bool
check(bool ok, const std::string &what)
{
    if (!ok)
        report(what);
    return ok;
}

const JsonValue *
requireField(const JsonValue &obj, const std::string &key,
             JsonValue::Kind kind, const std::string &where)
{
    const JsonValue *v = obj.find(key);
    if (!v) {
        report(where + ": missing field \"" + key + "\"");
        return nullptr;
    }
    if (v->kind != kind) {
        report(where + ": field \"" + key + "\" has wrong type");
        return nullptr;
    }
    return v;
}

std::unique_ptr<JsonValue>
loadJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        report("cannot open " + path);
        return nullptr;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    JsonParser parser(text);
    auto doc = parser.parse();
    if (!doc)
        report(path + ": malformed JSON: " + parser.error());
    return doc;
}

// --- Bench --json report schema ------------------------------------------

void
checkBenchReport(const JsonValue &doc)
{
    requireField(doc, "bench", JsonValue::String, "report");
    const JsonValue *tables =
        requireField(doc, "tables", JsonValue::Array, "report");
    if (!tables)
        return;
    check(!tables->items.empty(), "report: no tables");
    for (std::size_t t = 0; t < tables->items.size(); ++t) {
        const JsonValue &table = tables->items[t];
        std::string where = "report table " + std::to_string(t);
        if (!check(table.kind == JsonValue::Object,
                   where + ": not an object"))
            continue;
        requireField(table, "title", JsonValue::String, where);
        const JsonValue *columns =
            requireField(table, "columns", JsonValue::Array, where);
        const JsonValue *rows =
            requireField(table, "rows", JsonValue::Array, where);
        if (!columns || !rows)
            continue;
        for (std::size_t r = 0; r < rows->items.size(); ++r) {
            const JsonValue &row = rows->items[r];
            if (!check(row.kind == JsonValue::Array,
                       where + " row " + std::to_string(r) +
                           ": not an array"))
                continue;
            check(row.items.size() == columns->items.size(),
                  where + " row " + std::to_string(r) +
                      ": cell count mismatch");
        }
    }
}

// --- Metrics export schema -----------------------------------------------

void
checkCell(const JsonValue &cell, const std::string &where)
{
    for (const char *field :
         {"stores", "store_bytes", "flushes", "fences", "model_ns"})
        requireField(cell, field, JsonValue::Number, where);
}

void
checkMetricsSchema(const JsonValue &doc)
{
    requireField(doc, "bench", JsonValue::String, "metrics");
    const JsonValue *version =
        requireField(doc, "schema_version", JsonValue::Number,
                     "metrics");
    if (version)
        check(version->number == 5, "metrics: schema_version != 5");

    const JsonValue *counters =
        requireField(doc, "counters", JsonValue::Object, "metrics");
    if (counters) {
        for (const auto &[name, value] : counters->fields)
            check(value.isNumber(),
                  "counter \"" + name + "\" not a number");
    }
    requireField(doc, "gauges", JsonValue::Object, "metrics");

    const JsonValue *hists =
        requireField(doc, "histograms", JsonValue::Object, "metrics");
    if (hists) {
        for (const auto &[name, h] : hists->fields) {
            std::string where = "histogram \"" + name + "\"";
            if (!check(h.kind == JsonValue::Object,
                       where + ": not an object"))
                continue;
            for (const char *field :
                 {"count", "sum", "max", "p50", "p95", "p99"})
                requireField(h, field, JsonValue::Number, where);
            requireField(h, "buckets", JsonValue::Array, where);
        }
    }

    const JsonValue *phases =
        requireField(doc, "pm_phases", JsonValue::Object, "metrics");
    if (phases) {
        for (const auto &[engine, comps] : phases->fields) {
            std::string where = "pm_phases." + engine;
            if (!check(comps.kind == JsonValue::Object,
                       where + ": not an object"))
                continue;
            for (const auto &[comp, cell] : comps.fields)
                checkCell(cell, where + "." + comp);
        }
    }
    const JsonValue *sites =
        requireField(doc, "pm_sites", JsonValue::Object, "metrics");
    if (sites) {
        for (const auto &[engine, entries] : sites->fields) {
            if (entries.kind != JsonValue::Object)
                continue;
            for (const auto &[site, cell] : entries.fields)
                checkCell(cell, "pm_sites." + engine + "." + site);
        }
    }

    const JsonValue *recovery =
        requireField(doc, "recovery", JsonValue::Object, "metrics");
    if (recovery) {
        for (const auto &[engine, entry] : recovery->fields) {
            std::string where = "recovery." + engine;
            if (!check(entry.kind == JsonValue::Object,
                       where + ": not an object"))
                continue;
            for (const char *field :
                 {"recoveries", "pages_scanned", "records_replayed",
                  "records_discarded", "torn_records"})
                requireField(entry, field, JsonValue::Number, where);
            const JsonValue *ph = requireField(
                entry, "phases", JsonValue::Object, where);
            if (!ph)
                continue;
            for (const auto &[phase, h] : ph->fields) {
                std::string pw = where + ".phases." + phase;
                if (!check(h.kind == JsonValue::Object,
                           pw + ": not an object"))
                    continue;
                for (const char *field :
                     {"count", "sum", "p50", "p95"})
                    requireField(h, field, JsonValue::Number, pw);
            }
        }
    }

    // Span-profiler sections (schema v4+). Present even in a
    // metrics-off run (empty), so their absence is always a schema
    // break, never a workload artifact.
    const JsonValue *spans =
        requireField(doc, "spans", JsonValue::Object, "metrics");
    if (spans) {
        requireField(*spans, "recorded", JsonValue::Number, "spans");
        requireField(*spans, "ring_stats", JsonValue::Array, "spans");
        const JsonValue *engines = requireField(
            *spans, "engines", JsonValue::Object, "spans");
        if (engines) {
            for (const auto &[engine, es] : engines->fields) {
                std::string where = "spans.engines." + engine;
                if (!check(es.kind == JsonValue::Object,
                           where + ": not an object"))
                    continue;
                for (const char *field :
                     {"spans", "commits", "aborts", "latch_waits",
                      "latch_wait_ns", "latch_conflicts",
                      "pcas_attempts", "pcas_retries", "pcas_helps",
                      "flushes", "fences", "model_ns", "wal_appends",
                      "splits", "defrags", "page_accesses",
                      "page_dirty"})
                    requireField(es, field, JsonValue::Number, where);
                const JsonValue *wall = requireField(
                    es, "wall_ns", JsonValue::Object, where);
                if (wall) {
                    for (const char *field :
                         {"count", "sum", "max", "p50", "p95", "p99"})
                        requireField(*wall, field, JsonValue::Number,
                                     where + ".wall_ns");
                }
                requireField(es, "phase_ns", JsonValue::Object, where);
            }
        }
    }

    const JsonValue *latch = requireField(
        doc, "latch_contention", JsonValue::Object, "metrics");
    if (latch) {
        for (const char *field :
             {"total_waits", "total_conflicts", "contended_slots"})
            requireField(*latch, field, JsonValue::Number,
                         "latch_contention");
        const JsonValue *slots = requireField(
            *latch, "slots", JsonValue::Array, "latch_contention");
        if (slots) {
            for (const JsonValue &ls : slots->items) {
                if (!check(ls.kind == JsonValue::Object,
                           "latch_contention slot not an object"))
                    continue;
                for (const char *field :
                     {"slot", "waits", "conflicts", "wait_ns"})
                    requireField(ls, field, JsonValue::Number,
                                 "latch_contention slot");
                requireField(ls, "hist", JsonValue::Object,
                             "latch_contention slot");
            }
        }
    }

    const JsonValue *heat =
        requireField(doc, "page_heat", JsonValue::Object, "metrics");
    if (heat) {
        for (const char *field : {"tracked", "overflow", "decays"})
            requireField(*heat, field, JsonValue::Number, "page_heat");
        const JsonValue *top = requireField(
            *heat, "top", JsonValue::Array, "page_heat");
        if (top) {
            for (const JsonValue &pe : top->items) {
                if (!check(pe.kind == JsonValue::Object,
                           "page_heat entry not an object"))
                    continue;
                for (const char *field :
                     {"page", "accesses", "dirty", "conflicts"})
                    requireField(pe, field, JsonValue::Number,
                                 "page_heat entry");
            }
        }
    }

    const JsonValue *outliers =
        requireField(doc, "outliers", JsonValue::Array, "metrics");
    if (outliers) {
        for (const JsonValue &o : outliers->items) {
            if (!check(o.kind == JsonValue::Object,
                       "outlier not an object"))
                continue;
            requireField(o, "engine", JsonValue::String, "outlier");
            requireField(o, "committed", JsonValue::Bool, "outlier");
            for (const char *field :
                 {"tx_id", "wall_ns", "model_ns", "latch_waits",
                  "latch_wait_ns", "pcas_retries", "flushes", "fences",
                  "wal_appends"})
                requireField(o, field, JsonValue::Number, "outlier");
            requireField(o, "phase_ns", JsonValue::Object, "outlier");
            for (const char *gone : {"events", "seq_lo", "seq_hi"})
                check(o.find(gone) == nullptr,
                      std::string("outlier: v4 field \"") + gone +
                          "\" present");
        }
    }
    check(doc.find("trace") == nullptr,
          "metrics: v4 \"trace\" section present");
}

// --- Figure 8 reproduction criteria --------------------------------------

double
cellField(const JsonValue &comps, const std::string &comp,
          const std::string &field)
{
    const JsonValue *cell = comps.find(comp);
    if (!cell)
        return 0;
    const JsonValue *v = cell->find(field);
    return v && v->isNumber() ? v->number : 0;
}

/**
 * The export alone must reproduce the paper's Fig-8 commit breakdown:
 * every engine pays log flushes (NVWAL its differential log, FASH its
 * always-on slot-header log, FAST the fallback path), the logging
 * engines checkpoint, and FAST additionally commits via the atomic
 * 64-B header write — one flush and one fence per in-place commit.
 */
void
checkFig8(const JsonValue &doc)
{
    const JsonValue *phases = doc.find("pm_phases");
    if (!phases || phases->kind != JsonValue::Object) {
        report("fig8: pm_phases section missing");
        return;
    }
    for (const char *engine : {"FAST", "FASH", "NVWAL"}) {
        const JsonValue *comps = phases->find(engine);
        if (!check(comps && comps->kind == JsonValue::Object,
                   std::string("fig8: no pm_phases entry for ") +
                       engine))
            continue;
        for (const char *field : {"flushes", "fences", "model_ns"}) {
            check(cellField(*comps, "log-flush", field) > 0,
                  std::string("fig8: ") + engine + " log-flush " +
                      field + " is zero");
        }
    }
    const JsonValue *fast = phases->find("FAST");
    if (fast) {
        check(cellField(*fast, "checkpointing", "flushes") > 0,
              "fig8: FAST checkpointing flushes is zero");
    }
    if (const JsonValue *fash = phases->find("FASH")) {
        check(cellField(*fash, "checkpointing", "flushes") > 0,
              "fig8: FASH checkpointing flushes is zero");
        check(cellField(*fash, "atomic-64B-write", "flushes") == 0,
              "fig8: FASH must never use the in-place commit");
    }
    if (const JsonValue *nvwal = phases->find("NVWAL")) {
        check(cellField(*nvwal, "heap-management", "flushes") > 0,
              "fig8: NVWAL heap-management flushes is zero");
    }

    // FAST's in-place commits publish through one persistent CAS of
    // header word 0 (DESIGN.md §14): the run must have booked PCAS
    // commits, and the atomic 64-B write must have cost exactly one
    // flush and one fence for each. The fallback counters may
    // legitimately stay zero on an uncontended run.
    const JsonValue *counters = doc.find("counters");
    if (check(counters && counters->kind == JsonValue::Object,
              "fig8: counters section missing")) {
        const JsonValue *commits = counters->find("core.pcas.commits");
        if (check(commits && commits->isNumber() && commits->number > 0,
                  "fig8: core.pcas.commits missing or zero") &&
            fast) {
            double flushes =
                cellField(*fast, "atomic-64B-write", "flushes");
            double fences = cellField(*fast, "atomic-64B-write", "fences");
            check(flushes == commits->number && fences == commits->number,
                  "fig8: FAST atomic-64B-write must cost one flush and "
                  "one fence per in-place commit (flushes " +
                      std::to_string(flushes) + ", fences " +
                      std::to_string(fences) + ", core.pcas.commits " +
                      std::to_string(commits->number) + ")");
        }
    }
}

// --- fasp-forensics report schema -----------------------------------------

/**
 * Validates the JSON a `fasp-forensics --json <image>` run emits over
 * a crash_sweep image (the CI forensics artifacts): tool banner,
 * superblock / log / flight_recorder / inflight sections, and the
 * record framing inside the timeline.
 */
void
checkForensicsReport(const JsonValue &doc, const std::string &path)
{
    const JsonValue *tool =
        requireField(doc, "tool", JsonValue::String, path);
    if (tool)
        check(tool->str == "fasp-forensics",
              path + ": tool != fasp-forensics");
    const JsonValue *version =
        requireField(doc, "schema_version", JsonValue::Number, path);
    if (version)
        check(version->number == 1, path + ": schema_version != 1");
    requireField(doc, "image_bytes", JsonValue::Number, path);

    const JsonValue *sb =
        requireField(doc, "superblock", JsonValue::Object, path);
    if (sb) {
        for (const char *field : {"present", "crc_ok"})
            requireField(*sb, field, JsonValue::Bool,
                         path + ".superblock");
        for (const char *field :
             {"version", "page_size", "page_count", "log_off",
              "log_len", "fr_off", "fr_len"})
            requireField(*sb, field, JsonValue::Number,
                         path + ".superblock");
    }

    const JsonValue *log =
        requireField(doc, "log", JsonValue::Object, path);
    if (log) {
        requireField(*log, "family", JsonValue::String, path + ".log");
        for (const char *field : {"entries", "commits", "torn_tail"})
            requireField(*log, field, JsonValue::Number, path + ".log");
        requireField(*log, "committed_txids", JsonValue::Array,
                     path + ".log");
    }

    const JsonValue *fr =
        requireField(doc, "flight_recorder", JsonValue::Object, path);
    if (fr) {
        std::string where = path + ".flight_recorder";
        for (const char *field : {"region_present", "header_ok"})
            requireField(*fr, field, JsonValue::Bool, where);
        requireField(*fr, "capacity", JsonValue::Number, where);
        requireField(*fr, "torn_slots", JsonValue::Array, where);
        const JsonValue *records =
            requireField(*fr, "records", JsonValue::Array, where);
        if (records) {
            for (const JsonValue &rec : records->items) {
                if (!check(rec.kind == JsonValue::Object,
                           where + ": record not an object"))
                    continue;
                for (const char *field :
                     {"seq", "txid", "page", "aux", "model_ns"})
                    requireField(rec, field, JsonValue::Number,
                                 where + " record");
                for (const char *field : {"type", "engine"})
                    requireField(rec, field, JsonValue::String,
                                 where + " record");
            }
        }
    }

    const JsonValue *inflight =
        requireField(doc, "inflight", JsonValue::Object, path);
    if (inflight) {
        std::string where = path + ".inflight";
        requireField(*inflight, "found", JsonValue::Bool, where);
        for (const char *field :
             {"txid", "begin_seq", "last_committed_txid"})
            requireField(*inflight, field, JsonValue::Number, where);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool fig8 = false;
    int arg = 1;
    if (arg < argc && std::strcmp(argv[arg], "--fig8") == 0) {
        fig8 = true;
        ++arg;
    }
    if (arg < argc && std::strcmp(argv[arg], "--forensics") == 0) {
        ++arg;
        if (arg >= argc) {
            std::fprintf(stderr, "usage: metrics_check --forensics "
                                 "<report.json>...\n");
            return 2;
        }
        for (; arg < argc; ++arg) {
            if (auto doc = loadJson(argv[arg]))
                checkForensicsReport(*doc, argv[arg]);
        }
        if (g_failures) {
            std::fprintf(stderr, "metrics_check: %d failure(s)\n",
                         g_failures);
            return 1;
        }
        std::fprintf(stderr, "metrics_check: OK\n");
        return 0;
    }
    if (arg >= argc) {
        std::fprintf(stderr,
                     "usage: metrics_check [--fig8] <bench-binary> "
                     "[work-dir]\n"
                     "       metrics_check --forensics "
                     "<report.json>...\n");
        return 2;
    }
    std::string bench = argv[arg++];
    std::string dir = arg < argc ? argv[arg] : ".";
    std::string json_path = dir + "/metrics_check.report.json";
    std::string metrics_path = dir + "/metrics_check.metrics.json";

    std::string cmd = bench + " --smoke --json=" + json_path +
                      " --metrics=" + metrics_path + " > /dev/null";
    std::fprintf(stderr, "metrics_check: running %s\n", cmd.c_str());
    int rc = std::system(cmd.c_str()); // NOLINT(concurrency-mt-unsafe)
    if (rc != 0) {
        std::fprintf(stderr, "metrics_check: bench exited with %d\n",
                     rc);
        return 1;
    }

    if (auto report_doc = loadJson(json_path))
        checkBenchReport(*report_doc);
    if (auto metrics_doc = loadJson(metrics_path)) {
        checkMetricsSchema(*metrics_doc);
        if (fig8)
            checkFig8(*metrics_doc);
    }

    if (g_failures) {
        std::fprintf(stderr, "metrics_check: %d failure(s)\n",
                     g_failures);
        return 1;
    }
    std::fprintf(stderr, "metrics_check: OK\n");
    return 0;
}
