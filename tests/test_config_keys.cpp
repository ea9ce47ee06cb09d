// The config key table (src/config/keys): each row's default is the one the
// builder and the spec parsers use, every shipped INI passes the table, and
// sections or keys without a row are rejected with their name.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/check.hpp"
#include "config/canonical.hpp"
#include "config/ini.hpp"
#include "config/keys.hpp"
#include "config/system_builder.hpp"
#include "sweep/sweep.hpp"

namespace axihc {
namespace {

std::string read_file(const std::string& rel) {
  std::ifstream in(std::string(AXIHC_REPO_ROOT) + "/" + rel);
  EXPECT_TRUE(in.good()) << rel;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The ModelError message `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

TEST(ConfigKeys, DefaultsAreCanonical) {
  // canonical_ini compares canonical values with the row text verbatim.
  for (const ConfigKey& row : config_keys()) {
    if (row.fallback == nullptr) continue;
    EXPECT_EQ(canonical_value(row.fallback), row.fallback)
        << "[" << row.family << "] " << row.key;
  }
}

/// Everything a run of `ini` shows: config digest, observability capacities,
/// the static certificate (analysis config, eFIFO depths, HA models and
/// their address windows), the report and the state digest. `cycles` 0 runs
/// the configured horizon.
std::string fingerprint(const IniFile& ini, Cycle cycles) {
  ConfiguredSystem sys(ini);
  std::ostringstream os;
  const ObserveConfig& o = sys.observe_config();
  os << config_digest(ini) << ' ' << o.trace_capacity << ' '
     << o.flight_capacity << '\n'
     << sys.prove().certificate_json() << '\n'
     << sys.run(cycles) << '\n'
     << sys.report() << sys.soc().sim().state_digest();
  return os.str();
}

/// True when `section` may hold `row`: an [haN] row whose type column does
/// not name the section's type is rejected, not ignored.
bool type_reads(const IniSection& section, const ConfigKey& row) {
  if (row.types == nullptr || !section.has("type")) return true;
  std::istringstream types(row.types);
  for (std::string type; types >> type;) {
    if (type == section.get_string("type")) return true;
  }
  return false;
}

/// Calls check(base, with) once per static-default row of each section's
/// family that `base` leaves unset and the section's type reads, `with`
/// being `base` plus that row's default spelled out; records the rows it
/// spelled.
template <typename Check>
void spell_each_default(
    const IniFile& base, Check check,
    std::set<std::pair<std::string_view, std::string_view>>& spelled) {
  for (const IniSection& section : base.sections()) {
    for (const ConfigKey& row : config_keys()) {
      const std::string key(row.key);
      if (row.family != config_family(section.name()) ||
          row.fallback == nullptr || section.has(key) ||
          !type_reads(section, row)) {
        continue;
      }
      SCOPED_TRACE("[" + section.name() + "] " + key + " = " + row.fallback);
      IniFile with = base;
      with.mutable_section(section.name())->set(key, row.fallback);
      check(with);
      spelled.emplace(row.family, row.key);
    }
  }
}

TEST(ConfigKeys, SpelledDefaultsBuildTheSameSystem) {
  // Representative bases: each leaves unset as many keys as it can, and
  // together they make every default visible in some run, so a call site
  // whose own fallback differs from its row fails here.
  const struct {
    const char* ini;
    Cycle cycles;
  } bases[] = {
      // dma + mixed traffic under a fault mix; empty [hyperconnect] and
      // [observe].
      {"[system]\n[hyperconnect]\n[ha0]\ntype = dma\n[ha1]\ntype = traffic\n"
       "direction = mixed\n[fault0]\nkind = delay_w\nparam = 4\n"
       "[fault1]\nkind = drop_w\nport = 1\nprobability = 0.5\n"
       "[fault2]\nkind = delay_w\nport = 1\n[observe]\n",
       20000},
      // dnns at full size, compute-bound, and with frames short enough
      // that several finish.
      {"[system]\nports = 3\n[ha0]\ntype = dnn\n[ha1]\ntype = dnn\n"
       "scale = 64\n[ha2]\ntype = dnn\nscale = 65536\n"
       "macs_per_cycle = 65536\n",
       20000},
      // Small DMA jobs, so the job limit shows.
      {"[system]\n[ha0]\ntype = dma\nbytes_per_job = 4096\n", 20000},
      // One job, then idle to the configured horizon.
      {"[system]\n[ha0]\ntype = dma\nmode = read\nmax_jobs = 1\n", 0},
      // A transient stall detected and recovered by the [recovery] stack.
      {"[system]\n[hyperconnect]\nprot_timeout = 300\nreservation_period = "
       "1000\nbudgets = 8 8\n[ha0]\ntype = dma\nbytes_per_job = 4096\n"
       "[ha1]\ntype = traffic\n[fault0]\nkind = stall_w\nstart = 2000\n"
       "duration = 3000\n[recovery]\n",
       20000},
      // A permanent stall: short backoffs run out of attempts, long ones
      // reach the backoff ceiling.
      {"[system]\n[hyperconnect]\nprot_timeout = 300\n[ha0]\ntype = dma\n"
       "[ha1]\ntype = traffic\n[fault0]\nkind = stall_w\nstart = 2000\n"
       "[recovery]\nbackoff_base = 250\n",
       20000},
      {"[system]\n[hyperconnect]\nprot_timeout = 300\n[ha0]\ntype = dma\n"
       "[ha1]\ntype = traffic\n[fault0]\nkind = stall_w\nstart = 2000\n"
       "[recovery]\nbackoff_base = 12000\n",
       20000},
      // An SLVERR window over the traffic region, and decode-map entries
      // the prover's address-map check compares.
      {"[system]\nmem_bytes = 0x80000000\n[mem0]\n[mem1]\nbase = 0x80000000\n"
       "bytes = 4096\n[ha0]\ntype = traffic\nbase = 0\n[fault0]\n"
       "kind = mem_slverr\n",
       20000},
  };
  std::set<std::pair<std::string_view, std::string_view>> spelled;
  for (const auto& base : bases) {
    SCOPED_TRACE(base.ini);
    const IniFile ini = IniFile::parse(base.ini);
    const std::string expected = fingerprint(ini, base.cycles);
    spell_each_default(
        ini,
        [&](const IniFile& with) {
          EXPECT_EQ(fingerprint(with, base.cycles), expected);
        },
        spelled);
  }
  // Every static default outside [campaign]/[sweep] was spelled somewhere.
  for (const ConfigKey& row : config_keys()) {
    if (row.fallback == nullptr || row.family == "campaign" ||
        row.family == "sweep") {
      continue;
    }
    EXPECT_TRUE(spelled.contains({row.family, row.key}))
        << "[" << row.family << "] " << row.key << " is never spelled";
  }
}

auto campaign_fields(const CampaignSpec& s) {
  return std::tie(s.runs, s.seed, s.cycles, s.min_faults, s.max_faults,
                  s.kinds, s.ports, s.start_min, s.start_max, s.duration_min,
                  s.duration_max, s.probability);
}

TEST(ConfigKeys, SpelledDefaultsParseTheSameSpecs) {
  // Defaults anywhere in the file, [system] cycles and ports included, must
  // leave the parsed campaign and sweep specs as they are.
  const std::string system =
      "[system]\n[hyperconnect]\nprot_timeout = 500\n[ha0]\ntype = dma\n"
      "[ha1]\ntype = traffic\n[recovery]\n";
  std::set<std::pair<std::string_view, std::string_view>> spelled;
  const IniFile campaign = IniFile::parse(system + "[campaign]\n");
  const CampaignSpec campaign_spec = parse_campaign_spec(campaign);
  spell_each_default(
      campaign,
      [&](const IniFile& with) {
        EXPECT_TRUE(campaign_fields(parse_campaign_spec(with)) ==
                    campaign_fields(campaign_spec));
        EXPECT_EQ(config_digest(with), config_digest(campaign));
      },
      spelled);
  const IniFile sweep =
      IniFile::parse(system + "[sweep]\naxis.ha0.burst = 8 | 16\n");
  const SweepSpec sweep_spec = parse_sweep_spec(sweep);
  spell_each_default(
      sweep,
      [&](const IniFile& with) {
        const SweepSpec spec = parse_sweep_spec(with);
        EXPECT_EQ(spec.name, sweep_spec.name);
        EXPECT_EQ(spec.cycles, sweep_spec.cycles);
        EXPECT_EQ(spec.cell_count(), sweep_spec.cell_count());
        EXPECT_EQ(config_digest(with), config_digest(sweep));
      },
      spelled);
  for (const ConfigKey& row : config_keys()) {
    if (row.fallback != nullptr &&
        (row.family == "campaign" || row.family == "sweep")) {
      EXPECT_TRUE(spelled.contains({row.family, row.key}))
          << "[" << row.family << "] " << row.key << " is never spelled";
    }
  }
  // The default [system] ports (2) also bounds the campaign's ports.
  const IniFile port2 = IniFile::parse(system + "[campaign]\nports = 2\n");
  EXPECT_THROW((void)parse_campaign_spec(port2), ModelError);
}

TEST(ConfigKeys, ObserveSizesLeaveTheConfigDigest) {
  // [observe] only sizes observer buffers: it changes neither the simulated
  // state nor a sweep or campaign row, so it must not split config digests
  // (and with them sweep cache entries and pins).
  const std::string quickstart =
      read_file("examples/configs/quickstart.ini");
  const std::uint64_t plain = config_digest(quickstart);
  for (const char* observe :
       {"[observe]\ntrace_capacity = 5\n", "[observe]\nflight_capacity = 8\n",
        "[observe]\n"}) {
    SCOPED_TRACE(observe);
    EXPECT_EQ(config_digest(quickstart + "\n" + observe), plain);
  }
}

std::vector<std::string> inis_under(const std::string& rel) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(AXIHC_REPO_ROOT) + "/" + rel)) {
    if (entry.path().extension() == ".ini") {
      out.push_back(rel + "/" + entry.path().filename().string());
    }
  }
  EXPECT_FALSE(out.empty()) << rel;
  return out;
}

TEST(ConfigKeys, ShippedFilesPass) {
  std::vector<std::string> systems = inis_under("examples/configs");
  for (const std::string& f : inis_under("tests/config_fixtures")) {
    systems.push_back(f);
  }
  for (const std::string& f : systems) {
    SCOPED_TRACE(f);
    EXPECT_EQ(error_of([&] { (void)build_system(read_file(f)); }), "");
  }
  // Every cell of every sweep spec, built but not simulated.
  for (const std::string& f : inis_under("examples/sweeps")) {
    SCOPED_TRACE(f);
    const IniFile ini = IniFile::parse(read_file(f));
    const SweepSpec spec = parse_sweep_spec(ini);
    for (std::size_t cell = 0; cell < spec.cell_count(); ++cell) {
      const std::string err = error_of(
          [&] { ConfiguredSystem sys(sweep_cell_config(ini, spec, cell)); });
      ASSERT_EQ(err, "") << "cell " << cell;
    }
  }
}

TEST(ConfigKeys, RejectsUnknownSectionsAndKeys) {
  const std::string fig5 = read_file("examples/configs/fig5_hc90.ini");
  const struct {
    std::string ini;
    const char* names;
  } cases[] = {
      // A misspelled section would drop the whole reservation plan.
      {replace_once(fig5, "[hyperconnect]", "[hyperconect]"),
       "[hyperconect]"},
      // A misspelled key would leave both ports unbudgeted.
      {replace_once(fig5, "budgets = 64 7", "budget = 64 7"),
       "[hyperconnect] unknown key 'budget'"},
      // [haN] is ha + decimal digits, not any name starting with "ha".
      {fig5 + "[hazard]\ntype = dma\n", "[hazard]"},
      {fig5 + "[mem0x]\nbytes = 4096\n", "[mem0x]"},
      {replace_once(fig5, "[ha1]", "[ha1]\nburts = 8"), "[ha1] unknown key"},
      // The EXBAR has one arbiter, round-robin, and requests carry no
      // priority.
      {replace_once(fig5, "[hyperconnect]",
                    "[hyperconnect]\narbitration = qos_priority"),
       "[hyperconnect] unknown key 'arbitration'"},
      {replace_once(fig5, "[ha1]", "[ha1]\nqos = 8"),
       "[ha1] unknown key 'qos'"},
      // What to observe is an axihc flag (--trace-out, --metrics-out,
      // --sample-every, --latency-audit), never a config key.
      {fig5 + "[observe]\ntrace = true\n", "[observe] unknown key 'trace'"},
      {fig5 + "[observe]\nmetrics = true\n",
       "[observe] unknown key 'metrics'"},
      {fig5 + "[observe]\nsample_every = 500\n",
       "[observe] unknown key 'sample_every'"},
      {fig5 + "[observe]\nlatency_audit = true\n",
       "[observe] unknown key 'latency_audit'"},
      // String keys take one of their row's values.
      {replace_once(fig5, "platform = zcu102", "platform = zcu104"),
       "[system] platform = 'zcu104' is not one of: zcu102 zynq7020"},
      {replace_once(fig5, "network = googlenet", "network = vgg"),
       "[ha0] network = 'vgg' is not one of"},
  };
  for (const auto& c : cases) {
    const std::string err = error_of([&] { (void)build_system(c.ini); });
    EXPECT_NE(err.find(c.names), std::string::npos) << c.names << ": " << err;
  }
}

TEST(ConfigKeys, RejectsUnknownSweepAxisTarget) {
  const std::string pareto = read_file("examples/sweeps/pareto1k.ini");
  const std::string bad_key = replace_once(
      pareto, "axis.hyperconnect.budgets", "axis.hyperconnect.budget");
  std::string err =
      error_of([&] { (void)parse_sweep_spec(IniFile::parse(bad_key)); });
  EXPECT_NE(err.find("[hyperconnect] budget"), std::string::npos) << err;
  const std::string bad_section =
      replace_once(pareto, "axis.ha1.gap", "axis.hal.gap");
  err = error_of([&] { (void)parse_sweep_spec(IniFile::parse(bad_section)); });
  EXPECT_NE(err.find("[hal]"), std::string::npos) << err;
}

TEST(ConfigKeys, RejectsCampaignTypo) {
  const std::string smoke = read_file("examples/configs/campaign_smoke.ini");
  const IniFile ini = IniFile::parse(
      replace_once(smoke, "duration_min = 3500", "duraton_min = 3500"));
  const std::string err = error_of([&] { (void)parse_campaign_spec(ini); });
  EXPECT_NE(err.find("[campaign] unknown key 'duraton_min'"),
            std::string::npos)
      << err;
}

TEST(ConfigKeys, RepeatingSectionsNameTheirFileIndex) {
  // HAs take ports in file order; canonical_ini sorts sections by name.
  // Swapped [ha0]/[ha1] blocks would build a different system under the
  // same config digest, so the name must match the position.
  const std::string fig5 = read_file("examples/configs/fig5_hc90.ini");
  const std::size_t ha0 = fig5.find("[ha0]");
  const std::size_t ha1 = fig5.find("[ha1]");
  const std::string swapped = fig5.substr(0, ha0) + fig5.substr(ha1) + "\n" +
                              fig5.substr(ha0, ha1 - ha0);
  std::string err = error_of([&] { (void)build_system(swapped); });
  EXPECT_NE(err.find("[ha1] must be named [ha0]"), std::string::npos) << err;

  const std::string faults =
      fig5 + "[fault1]\nkind = stall_w\nport = 1\n[fault0]\nkind = stall_r\n";
  err = error_of([&] { (void)build_system(faults); });
  EXPECT_NE(err.find("[fault1] must be named [fault0]"), std::string::npos)
      << err;
  const std::string gap = replace_once(fig5, "[ha1]", "[ha2]");
  err = error_of([&] { (void)build_system(gap); });
  EXPECT_NE(err.find("[ha2] must be named [ha1]"), std::string::npos) << err;
}

TEST(ConfigKeys, RejectsRepeatedSingleSection) {
  const std::string fig5 = read_file("examples/configs/fig5_hc90.ini");
  const std::string err = error_of(
      [&] { (void)build_system(fig5 + "[hyperconnect]\nbudgets = 7 64\n"); });
  EXPECT_NE(err.find("[hyperconnect] appears twice"), std::string::npos)
      << err;
}

TEST(ConfigKeys, RejectsInconsistentKeys) {
  // Keys each in range that contradict one another.
  const std::string fig5 = read_file("examples/configs/fig5_hc90.ini");
  const std::string smoke = read_file("examples/configs/campaign_smoke.ini");
  const struct {
    std::string ini;
    const char* names;
  } cases[] = {
      // An aliased address would decode by entry order; an entry past the
      // top of the address space would alias its low addresses.
      {replace_once(fig5, "[system]", "[system]\nmem_bytes = 0x80000000") +
           "[mem0]\nbase = 0x7FFFF000\nbytes = 0x2000\n",
       "[system] mem_bytes and [mem0] decode entries overlap"},
      {fig5 + "[mem0]\nbase = 0xFFFFFFFFFFFFF000\nbytes = 0x2000\n"
              "[mem1]\nbase = 0xFFFFFFFFFFFFF800\nbytes = 0x100\n",
       "[mem0] base + bytes wraps past the address space"},
  };
  for (const auto& c : cases) {
    const std::string err = error_of([&] { (void)build_system(c.ini); });
    EXPECT_NE(err.find(c.names), std::string::npos) << c.names << ": " << err;
  }
  // Touching or empty entries and a probation of exactly one poll are
  // consistent.
  for (const char* mems : {"[mem0]\nbytes = 0x1000\n[mem1]\nbase = 0x1000\n"
                           "bytes = 0x1000\n",
                           "[mem0]\nbase = 0x100\n[mem1]\nbytes = 0x1000\n"}) {
    EXPECT_EQ(error_of([&] { (void)build_system(fig5 + mems); }), "") << mems;
  }
  EXPECT_EQ(error_of([&] {
              (void)build_system(replace_once(smoke, "probation_window = 1500",
                                              "probation_window = 500"));
            }),
            "");
}

// The retired design-rule checker flagged these ranges as an error; the
// builder now refuses them and names both sections.
TEST(LintStructural, FlagsOverlappingDecodeMap) {
  const std::string err = error_of([] {
    (void)build_system(
        "[system]\nports = 1\n"
        "[mem0]\nbase = 0x0\nbytes = 0x2000\n"
        "[mem1]\nbase = 0x1000\nbytes = 0x2000\n"
        "[ha0]\ntype = dma\n");
  });
  EXPECT_NE(err.find("[mem0] and [mem1] decode entries overlap"),
            std::string::npos)
      << err;
}

TEST(ConfigKeys, RowBoundsNameSectionAndKey) {
  // Each line goes right after its section header, so it is the occurrence
  // every getter reads; the smoke campaign has every section needed.
  const std::string smoke = read_file("examples/configs/campaign_smoke.ini") +
                            "[observe]\n";
  const struct {
    const char* section;
    const char* line;
    const char* names;
  } cases[] = {
      {"[hyperconnect]", "data_depth = 0", "[hyperconnect] data_depth"},
      {"[hyperconnect]", "addr_depth = 0", "[hyperconnect] addr_depth"},
      {"[observe]", "flight_capacity = 0", "[observe] flight_capacity"},
      {"[recovery]", "poll_period = 0", "[recovery] poll_period"},
      {"[campaign]", "runs = 0", "[campaign] runs"},
      {"[campaign]", "duration_min = 0", "[campaign] duration_min"},
  };
  for (const auto& c : cases) {
    const std::string header = "\n" + std::string(c.section) + "\n";
    const IniFile ini = IniFile::parse(
        replace_once(smoke, header, header + c.line + "\n"));
    const std::string err = error_of([&] {
      (void)parse_campaign_spec(ini);
      ConfiguredSystem sys(ini);
    });
    EXPECT_NE(err.find(c.names), std::string::npos) << c.line << ": " << err;
  }
}

TEST(ConfigKeys, KeyTableRejectsWhatTheModelsCannotTake) {
  // Values no model can take, and keys no model reads, are rejected by the
  // key table and the builder with the user's section and key, before any
  // model constructor's invariant check (which names a source file). On
  // fig5, [ha0] is a dnn and [ha1] a dma on 2 ports (on fig4, [ha1] is a
  // traffic generator); each line goes right after its section header, so
  // it is the occurrence every getter reads.
  const struct {
    const char* section;
    const char* line;
    const char* names;
    const char* file = "examples/configs/fig5_hc90.ini";
  } cases[] = {
      {"[ha1]", "burst = 9999999", "[ha1] burst = 9999999 is out of range"},
      {"[ha1]", "burst = 0", "[ha1] burst = 0 is out of range [1, 256]"},
      {"[ha1]", "burst = 257", "[ha1] burst = 257 is out of range"},
      {"[ha1]", "outstanding = 0", "[ha1] outstanding = 0 is out of range"},
      {"[ha1]", "bytes_per_job = 0", "[ha1] bytes_per_job = 0 is out of"},
      {"[ha0]", "macs_per_cycle = 0", "[ha0] macs_per_cycle = 0 is out of"},
      {"[ha0]", "scale = 0", "[ha0] scale = 0 is out of range"},
      {"[hyperconnect]", "max_outstanding = 0",
       "[hyperconnect] max_outstanding = 0 is out of range"},
      {"[system]", "ports = 0", "[system] ports = 0 is out of range"},
      // Extra budgets would be dropped; fewer leave ports at 0.
      {"[hyperconnect]", "budgets = 10 20 30",
       "[hyperconnect] budgets has 3 entries, more than [system] ports = 2"},
      // Keys the HA's type never reads would be ignored.
      {"[ha0]", "burst = 0", "[ha0] burst is not read by type = dnn"},
      {"[ha1]", "gap = 8", "[ha1] gap is not read by type = dma"},
      // A sweep axis (appended) is checked against the base file's type.
      {"", "[sweep]\naxis.ha1.gap = 0 | 8",
       "[ha1] gap is not read by type = dma"},
      // A window past 2^64 would wrap to address 0 unseen.
      {"[ha1]", "read_base = 0xFFFFFFFFFFFFF000",
       "[ha1] read_base + bytes_per_job wraps past the address space"},
      {"[ha1]", "write_base = 0xFFFFFFFFFFFFF000",
       "[ha1] write_base + bytes_per_job wraps past the address space"},
      {"[ha1]", "base = 0xFFFFFFFFFFFFF000",
       "[ha1] base + the 1048576-byte region wraps past the address space",
       "examples/configs/fig4_isolation.ini"},
      {"", "[fault0]\nkind = mem_slverr\nbase = 0xFFFFFFFFFFFFF800",
       "[fault0] base + bytes wraps past the address space"},
      // RecoveryManager needs at least one attempt and a backoff that
      // starts at 1 cycle or more and never shrinks when doubled.
      {"[recovery]", "max_attempts = 0",
       "[recovery] max_attempts = 0 is out of range",
       "examples/configs/campaign_smoke.ini"},
      {"[recovery]", "backoff_base = 0",
       "[recovery] backoff_base = 0 is out of range",
       "examples/configs/campaign_smoke.ini"},
      {"[recovery]", "backoff_max = 100",
       "[recovery] backoff_max (100) is below backoff_base (500)",
       "examples/configs/campaign_smoke.ini"},
  };
  for (const auto& c : cases) {
    const std::string text = read_file(c.file);
    const std::string header = "\n" + std::string(c.section) + "\n";
    const IniFile ini = IniFile::parse(
        *c.section == '\0'
            ? text + c.line + "\n"
            : replace_once(text, header, header + c.line + "\n"));
    const std::string err = error_of([&] {
      if (ini.section("sweep") != nullptr) {
        (void)parse_sweep_spec(ini);
      } else {
        ConfiguredSystem sys(ini);
      }
    });
    EXPECT_NE(err.find(c.names), std::string::npos) << c.line << ": " << err;
    EXPECT_EQ(err.find("src/"), std::string::npos) << c.line << ": " << err;
  }
}

}  // namespace
}  // namespace axihc
