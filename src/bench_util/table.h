/**
 * @file
 * Aligned-text table printer for benchmark output, plus a JSON report
 * writer emitting the same tables machine-readably (one schema across
 * every bench, consumed by the CI bench-smoke artifacts).
 */

#ifndef FASP_BENCH_UTIL_TABLE_H
#define FASP_BENCH_UTIL_TABLE_H

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace fasp::benchutil {

/**
 * Collects rows of string cells and prints them with aligned columns.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header)
        : header_(std::move(header))
    {}

    /** Append one row (cell count should match the header). */
    void addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    /** Print to stdout with a title and separator rule. */
    void print(const std::string &title) const;

    const std::vector<std::string> &header() const { return header_; }

    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

    /** Format helpers. */
    static std::string fmt(double v, int decimals = 2);
    static std::string fmt(std::uint64_t v);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Machine-readable mirror of a bench run. Collects the same tables the
 * bench prints and writes
 *
 *   {"bench": "<name>", "tables": [
 *       {"title": "...", "columns": [...], "rows": [[...], ...]}, ...]}
 *
 * to a file. Every add/write is a no-op when constructed with an empty
 * path, so benches call it unconditionally and `--json=PATH` switches
 * the output on. Cells that are finite numbers in JSON number syntax
 * are emitted as JSON numbers, everything else (nan, inf, 0x10, 1.) as
 * strings, so the file is always valid JSON.
 */
class JsonReport
{
  public:
    JsonReport(std::string path, std::string bench)
        : path_(std::move(path)), bench_(std::move(bench))
    {}

    bool enabled() const { return !path_.empty(); }

    /** Record @p table under @p title (call next to table.print). */
    void add(const std::string &title, const Table &table);

    /** Write the report file; fatal on I/O error. */
    void write() const;

  private:
    std::string path_;
    std::string bench_;
    std::vector<std::pair<std::string, Table>> tables_;
};

} // namespace fasp::benchutil

#endif // FASP_BENCH_UTIL_TABLE_H
