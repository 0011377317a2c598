#include "bench_util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <regex>

#include "common/logging.h"

namespace fasp::benchutil {

void
Table::print(const std::string &title) const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size() && c < widths.size();
             ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    std::printf("\n== %s ==\n", title.c_str());
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::printf("%-*s", static_cast<int>(widths[c] + 2),
                        row[c].c_str());
        }
        std::printf("\n");
    };
    print_row(header_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows_)
        print_row(row);
}

std::string
Table::fmt(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
Table::fmt(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace {

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** True if @p s is a finite number in JSON number syntax. */
bool
isJsonNumber(const std::string &s)
{
    static const std::regex number(
        R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
    return std::regex_match(s, number) &&
           std::isfinite(std::strtod(s.c_str(), nullptr));
}

/** Emit a cell: bare if it is a JSON number, else as a string. */
void
appendJsonCell(std::string &out, const std::string &cell)
{
    if (isJsonNumber(cell))
        out += cell;
    else
        appendJsonString(out, cell);
}

} // namespace

void
JsonReport::add(const std::string &title, const Table &table)
{
    if (!enabled())
        return;
    tables_.emplace_back(title, table);
}

void
JsonReport::write() const
{
    if (!enabled())
        return;
    std::string out = "{\"bench\": ";
    appendJsonString(out, bench_);
    out += ", \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        const auto &[title, table] = tables_[t];
        if (t)
            out += ", ";
        out += "\n  {\"title\": ";
        appendJsonString(out, title);
        out += ", \"columns\": [";
        for (std::size_t c = 0; c < table.header().size(); ++c) {
            if (c)
                out += ", ";
            appendJsonString(out, table.header()[c]);
        }
        out += "], \"rows\": [";
        for (std::size_t r = 0; r < table.rows().size(); ++r) {
            if (r)
                out += ", ";
            out += "\n    [";
            const auto &row = table.rows()[r];
            for (std::size_t c = 0; c < row.size(); ++c) {
                if (c)
                    out += ", ";
                appendJsonCell(out, row[c]);
            }
            out += "]";
        }
        out += "]}";
    }
    out += "\n]}\n";

    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (!f)
        faspFatal("cannot open json report path: %s", path_.c_str());
    if (std::fwrite(out.data(), 1, out.size(), f) != out.size()) {
        std::fclose(f);
        faspFatal("short write to json report: %s", path_.c_str());
    }
    std::fclose(f);
}

} // namespace fasp::benchutil
