// Measurement-primitive tests: rate meter, table printer.
#include "stats/stats.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "stats/table.hpp"

namespace axihc {
namespace {

TEST(RateMeter, ConvertsToPerSecond) {
  RateMeter meter(100e6);  // 100 MHz
  // 10 completions in 1e6 cycles = 10 / 10ms = 1000/s.
  EXPECT_DOUBLE_EQ(meter.per_second(10, 1'000'000), 1000.0);
  EXPECT_DOUBLE_EQ(meter.to_us(100), 1.0);
}

TEST(RateMeter, BytesPerSecond) {
  RateMeter meter(150e6);
  // 8 bytes per cycle at 150 MHz = 1.2 GB/s.
  EXPECT_NEAR(meter.bytes_per_second(8 * 150'000'000ull, 150'000'000),
              1.2e9, 1);
}

TEST(Table, MarkdownOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  std::ostringstream os;
  t.print_markdown(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ModelError);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(10, 0), "10");
}

}  // namespace
}  // namespace axihc
