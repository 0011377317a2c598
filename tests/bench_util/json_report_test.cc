/**
 * @file
 * JsonReport: a --json report is valid JSON whatever its cells hold.
 * Only a finite number in JSON number syntax is written bare; every
 * other cell, including what strtod would accept (nan, inf, hex, a
 * trailing dot), is written as a string.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_util/table.h"

namespace fasp::benchutil {
namespace {

TEST(JsonReportTest, WritesOnlyJsonNumbersBare)
{
    std::string path = ::testing::TempDir() + "json_report_test.json";
    Table table({"cell"});
    table.addRow({"nan", "-nan", "inf", "-inf", "0x10", "1.", ".5",
                  "+1", "01", "1e999", " 7", "-nan%", "FAST"});
    table.addRow({"0", "-0", "12", "-3.25", "0.5", "1e-3", "2E+8",
                  Table::fmt(1.5, 3), Table::fmt(std::uint64_t{42})});
    JsonReport report(path, "json_report_test");
    report.add("cells", table);
    report.write();

    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(),
              "{\"bench\": \"json_report_test\", \"tables\": [\n"
              "  {\"title\": \"cells\", \"columns\": [\"cell\"], "
              "\"rows\": [\n"
              "    [\"nan\", \"-nan\", \"inf\", \"-inf\", \"0x10\", "
              "\"1.\", \".5\", \"+1\", \"01\", \"1e999\", \" 7\", "
              "\"-nan%\", \"FAST\"], \n"
              "    [0, -0, 12, -3.25, 0.5, 1e-3, 2E+8, 1.500, 42]]}\n"
              "]}\n");
}

} // namespace
} // namespace fasp::benchutil
