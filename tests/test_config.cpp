// INI parser and config-driven system builder tests (the axihc CLI engine).
#include <gtest/gtest.h>

#include <string>

#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "hyperconnect/hyperconnect.hpp"

namespace axihc {
namespace {

TEST(Ini, ParsesSectionsAndTypes) {
  const IniFile ini = IniFile::parse(
      "[system]\n"
      "name = hello world  ; comment\n"
      "count = 42\n"
      "ratio = 0.75\n"
      "flag = true\n"
      "list = 1 2 3\n"
      "# full-line comment\n"
      "[other]\n"
      "count = 0x10\n");
  const IniSection* sys = ini.section("system");
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->get_string("name"), "hello world");
  EXPECT_EQ(sys->get_u64("count", 0), 42u);
  EXPECT_DOUBLE_EQ(sys->get_double("ratio", 0), 0.75);
  EXPECT_TRUE(sys->get_bool("flag", false));
  EXPECT_EQ(sys->get_u32_list("list"), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(sys->get_u64("missing", 7), 7u);
  EXPECT_EQ(ini.section("other")->get_u64("count", 0), 16u);  // hex
}

TEST(Ini, RejectsMalformed) {
  EXPECT_THROW(IniFile::parse("[unterminated\n"), ModelError);
  EXPECT_THROW(IniFile::parse("key = value\n"), ModelError);  // no section
  EXPECT_THROW(IniFile::parse("[s]\nno_equals_here\n"), ModelError);
  EXPECT_THROW(IniFile::parse("[s]\n= value\n"), ModelError);
}

TEST(Ini, TypedAccessorsRejectGarbage) {
  const IniFile ini = IniFile::parse("[s]\nnum = abc\nflag = maybe\n");
  const IniSection* s = ini.section("s");
  EXPECT_THROW(static_cast<void>(s->get_u64("num", 0)), ModelError);
  EXPECT_THROW(static_cast<void>(s->get_bool("flag", false)), ModelError);
}

TEST(Ini, IntegerReadsRejectNegativeAndOutOfRange) {
  const IniFile ini = IniFile::parse(
      "[s]\n"
      "neg = -1\n"
      "max32 = 0xFFFFFFFF\n"
      "wide = 4294967296\n"
      "huge = 18446744073709551616\n"
      "neg_list = 1 -1\n"
      "wide_list = 4294967332 4294967332\n"
      "max_list = 4294967295 0x10\n");
  const IniSection* s = ini.section("s");
  EXPECT_THROW(static_cast<void>(s->get_u64("neg", 0)), ModelError);
  EXPECT_THROW(static_cast<void>(s->get_u64("huge", 0)), ModelError);
  EXPECT_EQ(s->get_u64("wide", 0), 4294967296u);
  EXPECT_EQ(s->get_u32("max32", 0), 0xFFFFFFFFu);
  EXPECT_EQ(s->get_u32("missing", 9), 9u);
  EXPECT_THROW(static_cast<void>(s->get_u32("wide", 0)), ModelError);
  EXPECT_THROW(static_cast<void>(s->get_u32("neg", 0)), ModelError);
  EXPECT_THROW(static_cast<void>(s->get_u32_list("neg_list")), ModelError);
  EXPECT_THROW(static_cast<void>(s->get_u32_list("wide_list")), ModelError);
  EXPECT_EQ(s->get_u32_list("max_list"),
            (std::vector<std::uint32_t>{4294967295u, 16u}));
}

TEST(Ini, PrefixLookupKeepsOrder) {
  const IniFile ini = IniFile::parse("[ha0]\nt=a\n[x]\nt=b\n[ha1]\nt=c\n");
  const auto has = ini.sections_with_prefix("ha");
  ASSERT_EQ(has.size(), 2u);
  EXPECT_EQ(has[0]->name(), "ha0");
  EXPECT_EQ(has[1]->name(), "ha1");
}

TEST(SystemBuilder, BuildsAndRunsTwoDmaSystem) {
  auto system = build_system(
      "[system]\n"
      "interconnect = hyperconnect\n"
      "ports = 2\n"
      "cycles = 50000\n"
      "[hyperconnect]\n"
      "reservation_period = 2000\n"
      "budgets = 30 15\n"
      "[ha0]\n"
      "type = dma\n"
      "mode = readwrite\n"
      "bytes_per_job = 65536\n"
      "[ha1]\n"
      "type = traffic\n"
      "direction = read\n"
      "burst = 8\n");
  EXPECT_EQ(system->run(), 50000u);
  EXPECT_EQ(system->ha_count(), 2u);
  EXPECT_GT(system->ha(0).stats().bytes_read, 0u);
  EXPECT_GT(system->ha(1).stats().bytes_read, 0u);
  // The 2:1 budget split must show in the issued sub-transactions.
  HyperConnect* hc = system->soc().hyperconnect();
  ASSERT_NE(hc, nullptr);
  EXPECT_EQ(hc->runtime().budgets[0], 30u);
  const std::string report = system->report();
  EXPECT_NE(report.find("ha0"), std::string::npos);
  EXPECT_NE(report.find("MB/s"), std::string::npos);
}

TEST(SystemBuilder, BuildsSmartConnectVariant) {
  auto system = build_system(
      "[system]\n"
      "interconnect = smartconnect\n"
      "cycles = 10000\n"
      "[ha0]\n"
      "type = traffic\n");
  EXPECT_EQ(system->soc().hyperconnect(), nullptr);
  system->run();
  EXPECT_GT(system->ha(0).stats().bytes_read, 0u);
}

TEST(SystemBuilder, DnnOnZynq7020) {
  auto system = build_system(
      "[system]\n"
      "platform = zynq7020\n"
      "cycles = 200000\n"
      "[ha0]\n"
      "type = dnn\n"
      "network = alexnet\n"
      "scale = 256\n");
  EXPECT_EQ(system->platform().name, "Zynq Z-7020");
  system->run();
  EXPECT_GT(system->ha(0).stats().bytes_read, 0u);
}

TEST(SystemBuilder, OutOfOrderModeWiresEverything) {
  auto system = build_system(
      "[system]\n"
      "cycles = 20000\n"
      "[hyperconnect]\n"
      "out_of_order = true\n"
      "[ha0]\n"
      "type = traffic\n"
      "[ha1]\n"
      "type = traffic\n");
  system->run();
  EXPECT_GT(system->ha(0).stats().bytes_read, 0u);
  EXPECT_GT(system->ha(1).stats().bytes_read, 0u);
}

TEST(SystemBuilder, RejectsBadConfigs) {
  EXPECT_THROW(build_system("[ha0]\ntype = dma\n"), ModelError);  // no system
  EXPECT_THROW(build_system("[system]\ncycles = 10\n"), ModelError);  // no HA
  EXPECT_THROW(build_system("[system]\ninterconnect = magic\n[ha0]\n"
                            "type = dma\n"),
               ModelError);
  EXPECT_THROW(build_system("[system]\nports = 1\n[ha0]\ntype = dma\n"
                            "[ha1]\ntype = dma\n"),
               ModelError);  // more HAs than ports
  EXPECT_THROW(build_system("[system]\ncycles=1\n[ha0]\ntype = warp\n"),
               ModelError);
  EXPECT_THROW(build_system("[system]\ncycles=1\n[ha0]\ntype = dnn\n"
                            "network = vgg\n"),
               ModelError);
}

// The pareto1k base config plus one line, for values a 32-bit cast would
// wrap (ports = 2^32 + 2 to 2 ports, budgets of 2^32 + 36 to 36) and
// negative values std::stoull reads as 2^64 - 1. The line goes right after
// the section header, so it shadows a base key of the same name (every get_*
// reads the first occurrence).
std::string pareto_base_with(const std::string& section,
                             const std::string& line) {
  std::string ini =
      "[system]\nports = 2\ncycles = 1000\n"
      "[hyperconnect]\nnominal_burst = 16\nmax_outstanding = 4\n"
      "reservation_period = 2000\nbudgets = 36 36\n"
      "[ha0]\ntype = traffic\n[ha1]\ntype = traffic\n";
  const std::string header = "[" + section + "]\n";
  ini.insert(ini.find(header) + header.size(), line + "\n");
  return ini;
}

std::string build_error(const std::string& ini) {
  try {
    static_cast<void>(build_system(ini));
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

TEST(SystemBuilder, RejectsWrappingAndNegativeIntegers) {
  // Sanity: the unmodified base builds.
  EXPECT_NO_THROW(build_system(pareto_base_with("system", "")));
  const struct {
    const char* section;
    const char* line;
    const char* names;
  } cases[] = {
      {"system", "ports = 4294967298", "[system] ports"},
      {"hyperconnect", "budgets = 4294967332 4294967332",
       "[hyperconnect] budgets"},
      {"hyperconnect", "max_outstanding = -1",
       "[hyperconnect] max_outstanding"},
      {"hyperconnect", "max_outstanding = 4294967300",
       "[hyperconnect] max_outstanding"},
      {"hyperconnect", "nominal_burst = 4294967312",
       "[hyperconnect] nominal_burst"},
      {"hyperconnect", "reservation_period = -2000",
       "[hyperconnect] reservation_period"},
      {"ha1", "outstanding = 4294967304", "[ha1] outstanding"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    const std::string msg = build_error(pareto_base_with(c.section, c.line));
    EXPECT_NE(msg.find(c.names), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace axihc
