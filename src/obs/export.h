/**
 * @file
 * Exporters for the obs layer. The JSON export (machine-diffable,
 * consumed by tools/metrics_check, tools/fasp-profile, and the
 * golden-file ctest) renders the per-engine counters and PM
 * phase/site attribution ledger, the recovery ledger, and the span
 * profiler's per-engine summaries, latch contention profile,
 * page-hotness sketch, and captured p99 outliers. A second exporter
 * renders the span rings as a chrome://tracing timeline.
 */

#ifndef FASP_OBS_EXPORT_H
#define FASP_OBS_EXPORT_H

#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/span.h"

namespace fasp::obs {

/** Append @p s to @p out as a JSON string literal (quoted, escaped).
 *  Every JSON report in src/ writes its strings through this. */
void appendJsonString(std::string &out, std::string_view s);

/** Render everything as a JSON document (schema_version 8:
 *  `counters` are keyed by engine like `pm_phases`, and the registry's
 *  `histograms` are gone; v7 dropped the `gauges` object; v6 keyed
 *  latch contention by page — `latch_contention` keeps totals and one
 *  merged histogram, `page_heat` entries gain `latch_waits` and
 *  `latch_wait_ns`, outliers name `hot_latch_page`; v5 dropped the
 *  trace-ring section and the outliers' trace slices; v4 added the
 *  span-profiler sections `spans`, `latch_contention`, `page_heat`,
 *  and `outliers`; v3 added the `core.pcas.*` counters; v2 added the
 *  `recovery` section). @p spans may be null: the four profiler
 *  sections are still emitted, empty, so consumers can rely on their
 *  presence. */
std::string exportJson(const std::string &benchName,
                       const PhaseLedger &ledger,
                       const RecoveryLedger &recovery,
                       const SpanProfiler *spans = nullptr);

/** Render the span rings' retained spans as a chrome://tracing /
 *  Perfetto JSON document: one complete ("ph": "X") event per span at
 *  its real begin timestamp and wall duration (microseconds), with one
 *  track (tid) per ring. Quiescent-only, like
 *  SpanProfiler::retainedSpans(). */
std::string exportChromeTrace(const SpanProfiler &spans);

/**
 * Write the global ledgers and profiler to @p path as JSON.
 * Returns false (after logging) when the file cannot be written. This
 * is what the benches' --metrics=PATH flag calls.
 */
bool writeMetricsFile(const std::string &path,
                      const std::string &benchName);

/** Write the global span profiler as chrome://tracing JSON to @p path
 *  (the benches' --trace=PATH flag). Returns false after logging on
 *  failure. */
bool writeTraceFile(const std::string &path);

} // namespace fasp::obs

#endif // FASP_OBS_EXPORT_H
