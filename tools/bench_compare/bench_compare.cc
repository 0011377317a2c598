/**
 * @file
 * bench_compare: the perf-gate's regression detector. Compares two
 * bench --json reports (a committed BENCH_*.json snapshot vs a fresh
 * run of the same bench at the same settings) metric by metric and
 * fails when the candidate regresses past tolerance.
 *
 * Comparison model:
 *
 *  - Tables are matched by exact title, columns by name, rows
 *    positionally (the two reports must come from the same bench code
 *    at the same sweep settings — a shape mismatch, such as a gated
 *    baseline column the candidate lacks, or a row whose leading
 *    string cells differ from the baseline row at its position, means
 *    the snapshot is stale and the verdict is "shape", not a measured
 *    regression).
 *  - A column is gated when its name carries a known direction:
 *    throughput columns (ops/sec, ktxn/s, txn/s) regress when the
 *    candidate is LOWER; cost columns (commit(us)) regress when the
 *    candidate is HIGHER. Everything else — counters, ratios,
 *    percentile breakdowns — is informational only: smoke-sized runs
 *    make small-count columns far too noisy to gate on.
 *  - A gated cell regresses when the relative change in the bad
 *    direction exceeds the tolerance (default 15%). Baseline cells
 *    <= 0 are skipped (nothing meaningful to be relative to).
 *
 * Usage:
 *   bench_compare [--tolerance=0.15] [--tolerance=<column>=<frac>]
 *                 [--gate=<column>=higher|lower] [--json=<path>]
 *                 <baseline.json> <candidate.json>
 *
 * --tolerance=<frac>            default tolerance for every gated column
 * --tolerance=<column>=<frac>   per-column override (exact column name)
 * --gate=<column>=higher|lower  gate an extra column (higher = bigger
 *                               is better, i.e. a drop regresses)
 * --json=<path>                 machine-readable verdict for CI
 *
 * Exit: 0 pass, 1 regression found, 2 usage/IO/shape error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mini_json.h"

namespace {

using fasp::minijson::jsonEscape;
using fasp::minijson::JsonParser;
using fasp::minijson::JsonValue;

struct Regression
{
    std::string table;
    std::size_t row = 0;
    std::string column;
    std::string label; //!< leading row cells, for human context
    double base = 0;
    double cand = 0;
    double change = 0; //!< signed relative change in the bad direction
    double tolerance = 0;
};

struct Options
{
    double tolerance = 0.15;
    std::map<std::string, double> columnTolerance;
    // true = higher is better (drop regresses); false = lower is
    // better (rise regresses). Columns absent from this map ride
    // through ungated — notably fig12's "latch-p95(ns)" span-profiler
    // column, whose wait times swing with host CPU share and would
    // make the gate flaky (tools/bench_compare/fixtures/
    // latch_column_noise.json proves it stays ungated).
    std::map<std::string, bool> gates = {
        {"ops/sec", true},   {"ktxn/s", true},
        {"txn/s", true},     {"commit(us)", false},
    };
    std::string jsonPath;
    std::string baselinePath;
    std::string candidatePath;
};

std::unique_ptr<JsonValue>
loadReport(const std::string &path, std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = "cannot open " + path;
        return nullptr;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    JsonParser parser(text);
    auto doc = parser.parse();
    if (!doc) {
        err = path + ": malformed JSON: " + parser.error();
        return nullptr;
    }
    if (doc->kind != JsonValue::Object || !doc->find("tables") ||
        doc->find("tables")->kind != JsonValue::Array) {
        err = path + ": not a bench report (no \"tables\" array)";
        return nullptr;
    }
    return doc;
}

/** Leading string-valued cells of a row, joined — enough context to
 *  locate the point ("FAST 16" / "300/300 NVWAL"). */
std::string
rowLabel(const JsonValue &row)
{
    std::string label;
    for (const JsonValue &cell : row.items) {
        std::string part;
        if (cell.kind == JsonValue::String)
            part = cell.str;
        else if (cell.isNumber() && label.size() < 12)
            part = std::to_string(static_cast<long long>(cell.number));
        else
            continue;
        if (!label.empty())
            label += " ";
        label += part;
        if (label.size() >= 24)
            break;
    }
    return label;
}

/** The string cells a row starts with ("A", "FAST"): what names the
 *  point, and what must match between the two reports' rows. */
std::vector<std::string>
leadingStrings(const JsonValue &row)
{
    std::vector<std::string> out;
    for (const JsonValue &cell : row.items) {
        if (cell.kind != JsonValue::String)
            break;
        out.push_back(cell.str);
    }
    return out;
}

bool
cellNumber(const JsonValue &cell, double &out)
{
    if (cell.isNumber()) {
        out = cell.number;
        return true;
    }
    return false;
}

/** Compare one matched pair of tables; append regressions. Returns
 *  false on a shape mismatch. */
bool
compareTable(const JsonValue &base, const JsonValue &cand,
             const Options &opt, std::vector<Regression> &out,
             std::size_t &gatedCells, std::string &err)
{
    const JsonValue *title = base.find("title");
    const JsonValue *bcols = base.find("columns");
    const JsonValue *brows = base.find("rows");
    const JsonValue *ccols = cand.find("columns");
    const JsonValue *crows = cand.find("rows");
    if (!title || !bcols || !brows || !ccols || !crows) {
        err = "table missing title/columns/rows";
        return false;
    }
    if (brows->items.size() != crows->items.size()) {
        err = "'" + title->str + "': row count " +
              std::to_string(brows->items.size()) + " vs " +
              std::to_string(crows->items.size()) +
              " (stale snapshot? refresh with bench/snapshot.sh)";
        return false;
    }
    for (std::size_t r = 0; r < brows->items.size(); ++r) {
        std::vector<std::string> blabel = leadingStrings(brows->items[r]);
        std::vector<std::string> clabel = leadingStrings(crows->items[r]);
        if (blabel != clabel) {
            auto joined = [](const std::vector<std::string> &parts) {
                std::string out;
                for (const std::string &part : parts)
                    out += (out.empty() ? "" : " ") + part;
                return out;
            };
            err = "'" + title->str + "': row " + std::to_string(r) +
                  " is '" + joined(blabel) + "' in the baseline but '" +
                  joined(clabel) + "' in the candidate (stale " +
                  "snapshot? refresh with bench/snapshot.sh)";
            return false;
        }
    }

    for (std::size_t c = 0; c < bcols->items.size(); ++c) {
        const std::string &col = bcols->items[c].str;
        auto gate = opt.gates.find(col);
        if (gate == opt.gates.end())
            continue;
        auto named = [&col](const JsonValue &v) { return v.str == col; };
        auto cit = std::find_if(ccols->items.begin(), ccols->items.end(),
                                named);
        if (cit == ccols->items.end()) {
            err = "'" + title->str + "': candidate has no column '" +
                  col + "' (stale snapshot? refresh with " +
                  "bench/snapshot.sh)";
            return false;
        }
        const std::size_t cc =
            static_cast<std::size_t>(cit - ccols->items.begin());
        bool higherIsBetter = gate->second;
        double tol = opt.tolerance;
        auto ct = opt.columnTolerance.find(col);
        if (ct != opt.columnTolerance.end())
            tol = ct->second;

        for (std::size_t r = 0; r < brows->items.size(); ++r) {
            const JsonValue &brow = brows->items[r];
            const JsonValue &crow = crows->items[r];
            if (c >= brow.items.size() || cc >= crow.items.size())
                continue;
            double b = 0, v = 0;
            if (!cellNumber(brow.items[c], b) ||
                !cellNumber(crow.items[cc], v))
                continue;
            if (b <= 0)
                continue;
            ++gatedCells;
            double change = higherIsBetter ? (b - v) / b : (v - b) / b;
            if (change > tol)
                out.push_back({title->str, r, col, rowLabel(brow), b,
                               v, change, tol});
        }
    }
    return true;
}

void
writeVerdict(const Options &opt, const std::vector<Regression> &regs,
             std::size_t gatedCells, const std::string &shapeError)
{
    if (opt.jsonPath.empty())
        return;
    std::ofstream out(opt.jsonPath, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "bench_compare: cannot write %s\n",
                     opt.jsonPath.c_str());
        return;
    }
    const char *verdict = !shapeError.empty() ? "shape"
                          : regs.empty()      ? "pass"
                                              : "fail";
    out << "{\"verdict\": \"" << verdict << "\", \"baseline\": \""
        << jsonEscape(opt.baselinePath) << "\", \"candidate\": \""
        << jsonEscape(opt.candidatePath) << "\", \"gated_cells\": "
        << gatedCells << ", \"tolerance\": " << opt.tolerance;
    if (!shapeError.empty())
        out << ", \"error\": \"" << jsonEscape(shapeError) << "\"";
    out << ", \"regressions\": [";
    for (std::size_t i = 0; i < regs.size(); ++i) {
        const Regression &r = regs[i];
        char nums[160];
        std::snprintf(nums, sizeof nums,
                      "\"baseline\": %g, \"candidate\": %g, "
                      "\"change\": %.4f, \"tolerance\": %.4f}",
                      r.base, r.cand, r.change, r.tolerance);
        out << (i == 0 ? "" : ", ") << "{\"table\": \""
            << jsonEscape(r.table) << "\", \"row\": " << r.row
            << ", \"column\": \"" << jsonEscape(r.column)
            << "\", \"label\": \"" << jsonEscape(r.label) << "\", "
            << nums;
    }
    out << "]}\n";
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: bench_compare [--tolerance=FRAC] "
        "[--tolerance=COLUMN=FRAC]\n"
        "                     [--gate=COLUMN=higher|lower] "
        "[--json=PATH]\n"
        "                     <baseline.json> <candidate.json>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--tolerance=", 0) == 0) {
            std::string spec = arg.substr(12);
            std::size_t eq = spec.rfind('=');
            if (eq == std::string::npos) {
                opt.tolerance = std::atof(spec.c_str());
            } else {
                opt.columnTolerance[spec.substr(0, eq)] =
                    std::atof(spec.c_str() + eq + 1);
            }
        } else if (arg.rfind("--gate=", 0) == 0) {
            std::string spec = arg.substr(7);
            std::size_t eq = spec.rfind('=');
            std::string dir =
                eq == std::string::npos ? "" : spec.substr(eq + 1);
            if (dir != "higher" && dir != "lower")
                return usage();
            opt.gates[spec.substr(0, eq)] = dir == "higher";
        } else if (arg.rfind("--json=", 0) == 0) {
            opt.jsonPath = arg.substr(7);
        } else if (arg.rfind("--", 0) == 0) {
            return usage();
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2)
        return usage();
    opt.baselinePath = positional[0];
    opt.candidatePath = positional[1];

    std::string err;
    auto base = loadReport(opt.baselinePath, err);
    if (!base) {
        std::fprintf(stderr, "bench_compare: %s\n", err.c_str());
        writeVerdict(opt, {}, 0, err);
        return 2;
    }
    auto cand = loadReport(opt.candidatePath, err);
    if (!cand) {
        std::fprintf(stderr, "bench_compare: %s\n", err.c_str());
        writeVerdict(opt, {}, 0, err);
        return 2;
    }

    // Index candidate tables by title; compare every baseline table.
    std::map<std::string, const JsonValue *> candTables;
    for (const JsonValue &t : cand->find("tables")->items)
        if (const JsonValue *title = t.find("title"))
            candTables[title->str] = &t;

    std::vector<Regression> regressions;
    std::size_t gatedCells = 0;
    for (const JsonValue &t : base->find("tables")->items) {
        const JsonValue *title = t.find("title");
        if (!title)
            continue;
        auto it = candTables.find(title->str);
        if (it == candTables.end()) {
            err = "candidate is missing table '" + title->str +
                  "' (stale snapshot? refresh with bench/snapshot.sh)";
            std::fprintf(stderr, "bench_compare: %s\n", err.c_str());
            writeVerdict(opt, regressions, gatedCells, err);
            return 2;
        }
        if (!compareTable(t, *it->second, opt, regressions,
                          gatedCells, err)) {
            std::fprintf(stderr, "bench_compare: %s\n", err.c_str());
            writeVerdict(opt, regressions, gatedCells, err);
            return 2;
        }
    }

    for (const Regression &r : regressions)
        std::fprintf(stderr,
                     "bench_compare: REGRESSION: %s [%s] %s: "
                     "%g -> %g (%.1f%% worse, tolerance %.0f%%)\n",
                     r.table.c_str(), r.label.c_str(),
                     r.column.c_str(), r.base, r.cand,
                     100.0 * r.change, 100.0 * r.tolerance);
    std::printf("bench_compare: %s: %zu gated cell%s, %zu "
                "regression%s (tolerance %.0f%%)\n",
                regressions.empty() ? "pass" : "FAIL", gatedCells,
                gatedCells == 1 ? "" : "s", regressions.size(),
                regressions.size() == 1 ? "" : "s",
                100.0 * opt.tolerance);
    writeVerdict(opt, regressions, gatedCells, "");
    return regressions.empty() ? 0 : 1;
}
