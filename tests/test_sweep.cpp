// Sweep engine (src/sweep) + canonical config digests (src/config/canonical):
// axis expansion, cell purity, scheduler determinism, the result cache's
// hit/miss/invalidate behaviour, shard unions, pins, and reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json_write.hpp"
#include "config/canonical.hpp"
#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "sweep/code_version.hpp"
#include "sweep/json_mini.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/sweep.hpp"

namespace axihc {
namespace {

/// Scoped environment override (process-local; tests restore on exit).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

/// Rows embed the code-version digest; blank it out so runs under different
/// AXIHC_CODE_VERSION values can be compared on measurements alone.
std::vector<std::string> without_code(std::vector<std::string> lines) {
  for (std::string& line : lines) {
    const std::size_t key = line.find("\"code\":\"");
    if (key == std::string::npos) continue;
    const std::size_t begin = key + 8;
    const std::size_t end = line.find('"', begin);
    line.replace(begin, end - begin, "*");
  }
  return lines;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "axihc_sweep_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Checks that `f` rejects its input with a message naming `names` and no
/// source location or failed-check text (the fault is in the input).
template <typename F>
void expect_input_rejection(F f, const std::string& names) {
  std::string err;
  try {
    f();
  } catch (const ModelError& e) {
    err = e.what();
  }
  EXPECT_NE(err.find(names), std::string::npos) << err;
  EXPECT_EQ(err.find("check failed"), std::string::npos) << err;
  EXPECT_EQ(err.find(".cpp:"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Canonical config serialization + digest

TEST(Canonical, ValueNormalization) {
  EXPECT_EQ(canonical_value("  16   32 "), "16 32");
  EXPECT_EQ(canonical_value("0x40"), "64");
  EXPECT_EQ(canonical_value("yes"), "true");
  EXPECT_EQ(canonical_value("off"), "false");
  EXPECT_EQ(canonical_value("round_robin"), "round_robin");
}

TEST(Canonical, DigestIgnoresSpellingNotMeaning) {
  const std::string a =
      "[system]\nports = 2\ncycles = 0x3E8\n[ha0]\ntype = dma\n";
  const std::string b =
      "; a comment\n[ha0]\ntype = dma\n[system]\ncycles = 1000\n";
  // ports = 2 is the builder default -> elided; hex and decimal cycles
  // match; section and key order never matter.
  EXPECT_EQ(config_digest(a), config_digest(b));
  EXPECT_NE(config_digest(a),
            config_digest("[system]\ncycles = 1001\n[ha0]\ntype = dma\n"));
}

TEST(Canonical, FirstDuplicateWins) {
  // get_* reads the first occurrence, so canonicalization must too.
  EXPECT_EQ(config_digest("[ha0]\ntype = dma\nburst = 8\nburst = 32\n"),
            config_digest("[ha0]\ntype = dma\nburst = 8\n"));
}

TEST(Canonical, DefaultedKeysDropButSectionsSurvive) {
  // Spelling out a default does not change the digest...
  EXPECT_EQ(config_digest("[hyperconnect]\nnominal_burst = 16\n"),
            config_digest("[hyperconnect]\n"));
  // ...but an empty [recovery] is NOT the same system as no [recovery]:
  // the section's presence builds the hypervisor stack.
  EXPECT_NE(config_digest("[system]\n[recovery]\n"),
            config_digest("[system]\n"));
}

TEST(Canonical, DepthAlternativesCollapse) {
  // data_depth = 32 spells the structural default; 0 is no alias for it (the
  // builder rejects a zero depth).
  EXPECT_EQ(config_digest("[hyperconnect]\ndata_depth = 32\n"),
            config_digest("[hyperconnect]\n"));
  EXPECT_NE(config_digest("[hyperconnect]\ndata_depth = 0\n"),
            config_digest("[hyperconnect]\n"));
  EXPECT_NE(config_digest("[hyperconnect]\ndata_depth = 64\n"),
            config_digest("[hyperconnect]\n"));
}

TEST(Canonical, IniReplacePrimitive) {
  IniFile ini = IniFile::parse("[a]\nk = 1\nk = 2\nother = x\n");
  ini.get_or_add_section("a").replace("k", "9");
  // replace() updates the first occurrence (the one lookups read).
  EXPECT_EQ(ini.section("a")->get_string("k"), "9");
  ini.get_or_add_section("b").replace("new", "v");
  EXPECT_EQ(ini.section("b")->get_string("new"), "v");
}

// ---------------------------------------------------------------------------
// Spec parsing + axis expansion

TEST(SweepSpec, AxisValueExpansion) {
  EXPECT_EQ(expand_axis_values("8 | 16 | 32"),
            (std::vector<std::string>{"8", "16", "32"}));
  EXPECT_EQ(expand_axis_values("64 7 | 7 64"),
            (std::vector<std::string>{"64 7", "7 64"}));
  EXPECT_EQ(expand_axis_values("single"),
            (std::vector<std::string>{"single"}));
  EXPECT_EQ(expand_axis_values("range 1000 4000 1000"),
            (std::vector<std::string>{"1000", "2000", "3000", "4000"}));
  EXPECT_EQ(expand_axis_values("range 1 10 4"),
            (std::vector<std::string>{"1", "5", "9"}));
  EXPECT_THROW((void)expand_axis_values("8 | | 32"), ModelError);
  EXPECT_THROW((void)expand_axis_values("range 10 1 1"), ModelError);
  EXPECT_THROW((void)expand_axis_values("range 1 10 0"), ModelError);
  EXPECT_THROW((void)expand_axis_values("range 1 10"), ModelError);
}

TEST(SweepSpec, CartesianCountAndOrdering) {
  const IniFile ini = IniFile::parse(
      "[system]\n[ha0]\ntype = traffic\n[sweep]\n"
      "axis.hyperconnect.nominal_burst = 8 | 16 | 32\n"
      "axis.ha0.gap = 0 | 4\n");
  const SweepSpec spec = parse_sweep_spec(ini);
  EXPECT_EQ(spec.cell_count(), 6u);
  // Last axis varies fastest.
  EXPECT_EQ(spec.cell_indices(0), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(spec.cell_indices(1), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(spec.cell_indices(2), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(spec.cell_indices(5), (std::vector<std::size_t>{2, 1}));
}

TEST(SweepSpec, NoAxesMeansOneCell) {
  const IniFile ini =
      IniFile::parse("[system]\n[ha0]\ntype = traffic\n[sweep]\nname = solo\n");
  const SweepSpec spec = parse_sweep_spec(ini);
  EXPECT_EQ(spec.cell_count(), 1u);
  EXPECT_EQ(spec.name, "solo");
}

TEST(SweepSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_sweep_spec(IniFile::parse("[system]\n")),
               ModelError);  // no [sweep]
  EXPECT_THROW(
      (void)parse_sweep_spec(IniFile::parse("[sweep]\nbogus_key = 1\n")),
      ModelError);
  EXPECT_THROW(
      (void)parse_sweep_spec(IniFile::parse("[sweep]\naxis.nokey = 1\n")),
      ModelError);
  EXPECT_THROW((void)parse_sweep_spec(IniFile::parse(
                   "[sweep]\naxis.a.k = 1\naxis.a.k = 2\n")),
               ModelError);  // duplicate axis
  EXPECT_THROW((void)parse_sweep_spec(IniFile::parse(
                   "[sweep]\naxis.sweep.cycles = 1 | 2\n")),
               ModelError);  // cannot sweep [sweep]
  EXPECT_THROW((void)parse_sweep_spec(
                   IniFile::parse("[sweep]\n[campaign]\nruns = 2\n")),
               ModelError);  // campaigns and sweeps don't mix
}

TEST(SweepSpec, CellConfigIsPureOverride) {
  const IniFile ini = IniFile::parse(
      "[system]\ncycles = 99\n[hyperconnect]\nnominal_burst = 16\n"
      "[ha0]\ntype = traffic\n[sweep]\ncycles = 5000\n"
      "axis.hyperconnect.nominal_burst = 8 | 32\n"
      "axis.ha1.gap = 1 | 2\n");
  const SweepSpec spec = parse_sweep_spec(ini);
  const IniFile cell3 = sweep_cell_config(ini, spec, 3);
  // [sweep] is gone; the axis replaced the existing key in place; the
  // missing [ha1] section was created; the horizon override landed in
  // [system] so the config digest covers it.
  EXPECT_EQ(cell3.section("sweep"), nullptr);
  EXPECT_EQ(cell3.section("hyperconnect")->get_u64("nominal_burst", 0), 32u);
  ASSERT_NE(cell3.section("ha1"), nullptr);
  EXPECT_EQ(cell3.section("ha1")->get_u64("gap", 0), 2u);
  EXPECT_EQ(cell3.section("system")->get_u64("cycles", 0), 5000u);
  // Pure function: same (spec, cell) -> same digest, different cell ->
  // different digest.
  EXPECT_EQ(config_digest(sweep_cell_config(ini, spec, 3)),
            config_digest(cell3));
  EXPECT_NE(config_digest(sweep_cell_config(ini, spec, 2)),
            config_digest(cell3));
}

// ---------------------------------------------------------------------------
// Runner: determinism, cache, shards, pins

constexpr const char* kRunnable =
    "[system]\n"
    "interconnect = hyperconnect\n"
    "ports = 2\n"
    "[hyperconnect]\n"
    "reservation_period = 2000\n"
    "budgets = 36 36\n"
    "[ha0]\n"
    "type = traffic\n"
    "direction = read\n"
    "[ha1]\n"
    "type = traffic\n"
    "direction = mixed\n"
    "[sweep]\n"
    "name = unit\n"
    "cycles = 3000\n"
    "axis.hyperconnect.nominal_burst = 8 | 16\n"
    "axis.ha1.gap = 0 | 8\n";

SweepSummary run(const std::string& text, SweepOptions opts) {
  return run_sweep(IniFile::parse(text), opts);
}

TEST(SweepRunner, DeterministicAcrossRerunsAndThreadCounts) {
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary serial = [&] {
    ScopedEnv env("AXIHC_BENCH_THREADS", "1");
    return run(kRunnable, opts);
  }();
  const SweepSummary parallel = [&] {
    ScopedEnv env("AXIHC_BENCH_THREADS", "4");
    return run(kRunnable, opts);
  }();
  ASSERT_EQ(serial.lines.size(), 4u);
  // Byte-identical rows: same order, same measurements, no timing fields.
  EXPECT_EQ(serial.lines, parallel.lines);
  EXPECT_EQ(serial.lines, run(kRunnable, opts).lines);
}

TEST(SweepRunner, RowsCarrySchedulerRiders) {
  SweepOptions opts;  // deterministic off -> timing fields present
  const SweepSummary s = run(kRunnable, opts);
  for (const std::string& line : s.lines) {
    const JsonValue row = parse_json(line);
    ASSERT_NE(row.find("wall_ms"), nullptr) << line;
    ASSERT_NE(row.find("rss_kb"), nullptr) << line;
    ASSERT_NE(row.find("cached"), nullptr) << line;
    EXPECT_GT(row.find("rss_kb")->number, 0.0);
    EXPECT_GE(row.find("wall_ms")->number, 0.0);
  }
}

TEST(SweepRunner, CacheHitsMissesAndInvalidation) {
  ScopedEnv ver("AXIHC_CODE_VERSION", "cache_test_v1");
  const std::string dir = fresh_dir("cache");
  SweepOptions opts;
  opts.cache_dir = dir;
  opts.deterministic = true;

  const SweepSummary first = run(kRunnable, opts);
  EXPECT_EQ(first.executed, 4u);
  EXPECT_EQ(first.cache_hits, 0u);

  // Identical re-run: all hits, byte-identical rows.
  const SweepSummary second = run(kRunnable, opts);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.cache_hits, 4u);
  EXPECT_EQ(second.lines, first.lines);

  // Editing one axis value re-runs ONLY the cells it touches: gap 8 -> 12
  // invalidates two cells, the gap-0 cells still hit.
  std::string edited = kRunnable;
  const std::size_t pos = edited.find("0 | 8");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 5, "0 | 12");
  const SweepSummary third = run(edited, opts);
  EXPECT_EQ(third.executed, 2u);
  EXPECT_EQ(third.cache_hits, 2u);

  // A code-version bump invalidates everything, even with identical configs.
  {
    ScopedEnv bump("AXIHC_CODE_VERSION", "cache_test_v2");
    const SweepSummary rebuilt = run(kRunnable, opts);
    EXPECT_EQ(rebuilt.executed, 4u);
    EXPECT_EQ(rebuilt.cache_hits, 0u);
    // The measurements themselves are reproducible: the re-executed rows
    // match the first run bit-for-bit outside the code-version field.
    EXPECT_EQ(without_code(rebuilt.lines), without_code(first.lines));
  }
  std::filesystem::remove_all(dir);
}

/// The files in a cache directory (each one writer's log).
std::vector<std::filesystem::path> cache_files(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  return files;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The rows' `cached` riders in cell order.
std::vector<bool> cached_flags(const std::vector<std::string>& lines) {
  std::vector<bool> flags;
  for (const std::string& line : lines) {
    flags.push_back(parse_json(line).find("cached")->boolean);
  }
  return flags;
}

/// Drops the `cached`/`wall_ms`/`rss_kb` riders, the last three fields, so
/// rows compare with --sweep-deterministic ones.
std::vector<std::string> without_riders(std::vector<std::string> lines) {
  for (std::string& line : lines) {
    line.erase(line.rfind(",\"cached\":"));
    line += "}";
  }
  return lines;
}

TEST(SweepRunner, ColdRunWritesOneLogFile) {
  ScopedEnv ver("AXIHC_CODE_VERSION", "one_log_v1");
  const std::string dir = fresh_dir("one_log");
  SweepOptions opts;
  opts.cache_dir = dir;
  const SweepSummary s = run(kRunnable, opts);
  EXPECT_EQ(s.executed, 4u);
  // One line per executed config, in one file named after the code version.
  const std::vector<std::filesystem::path> files = cache_files(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].filename().string().rfind("one_log_v1-", 0), 0u);
  EXPECT_EQ(files[0].extension(), ".jsonl");
  EXPECT_EQ(read_lines(files[0]).size(), 4u);
  // A warm run that executes nothing writes nothing.
  EXPECT_EQ(run(kRunnable, opts).cache_hits, 4u);
  EXPECT_EQ(cache_files(dir).size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(SweepRunner, MalformedCacheEntryIsAMiss) {
  ScopedEnv ver("AXIHC_CODE_VERSION", "corrupt_test_v1");
  const std::string dir = fresh_dir("corrupt");
  SweepOptions opts;
  opts.cache_dir = dir;
  opts.deterministic = true;
  const SweepSummary first = run(kRunnable, opts);
  const std::vector<std::filesystem::path> files = cache_files(dir);
  ASSERT_EQ(files.size(), 1u);
  std::vector<std::string> log = read_lines(files[0]);
  ASSERT_EQ(log.size(), 4u);
  // Corrupt line 1 into a complete JSON object of no known shape, and cut
  // the last line mid-write (a torn append, a full disk) just after the
  // first `ha` entry's closing brace: those two cells re-run instead of
  // corrupting the rows; the other two still hit.
  log[1].replace(log[1].find("\"cycles\":"), 9, "\"cyclez\":");
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out << log[0] << "\n" << log[1] << "\n" << log[2] << "\n"
        << log[3].substr(0, log[3].find('}') + 1);
  }
  const std::string foreign = parse_json(log[1]).find("config")->str_or("");
  const std::string cut = parse_json(first.lines[3]).find("config")->str_or("");
  opts.deterministic = false;
  const SweepSummary second = run(kRunnable, opts);
  EXPECT_EQ(second.executed, 2u);
  EXPECT_EQ(second.cache_hits, 2u);
  for (const std::string& line : second.lines) {
    const JsonValue row = parse_json(line);
    const std::string config = row.find("config")->str_or("");
    EXPECT_EQ(row.find("cached")->boolean, config != foreign && config != cut)
        << line;
  }
  EXPECT_EQ(without_riders(second.lines), first.lines);
  std::filesystem::remove_all(dir);
}

TEST(SweepRunner, TornLastLineLosesOneCellAndLaterLogsStillHit) {
  ScopedEnv ver("AXIHC_CODE_VERSION", "torn_test_v1");
  const std::string dir = fresh_dir("torn");
  SweepOptions opts;
  opts.cache_dir = dir;
  const SweepSummary first = run(kRunnable, opts);
  const std::vector<std::filesystem::path> files = cache_files(dir);
  ASSERT_EQ(files.size(), 1u);
  // A writer killed mid-append: its last line ends without '}' or newline.
  const std::uintmax_t size = std::filesystem::file_size(files[0]);
  std::filesystem::resize_file(files[0], size - 40);

  const SweepSummary second = run(kRunnable, opts);
  EXPECT_EQ(second.executed, 1u);
  EXPECT_EQ(cached_flags(second.lines),
            (std::vector<bool>{true, true, true, false}));
  // The re-run cell went to a second log, which the next run reads.
  EXPECT_EQ(cache_files(dir).size(), 2u);
  const SweepSummary third = run(kRunnable, opts);
  EXPECT_EQ(third.executed, 0u);
  EXPECT_EQ(third.cache_hits, 4u);
  EXPECT_EQ(without_riders(third.lines), without_riders(first.lines));
  std::filesystem::remove_all(dir);
}

TEST(SweepRunner, ShardsSharingACacheDirServeTheUnshardedRun) {
  ScopedEnv ver("AXIHC_CODE_VERSION", "shard_cache_v1");
  const std::string dir = fresh_dir("shard_cache");
  SweepOptions opts;
  opts.cache_dir = dir;
  opts.deterministic = true;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    SweepOptions sopts = opts;
    sopts.shard_index = shard;
    sopts.shard_count = 2;
    EXPECT_EQ(run(kRunnable, sopts).executed, 2u);
  }
  EXPECT_EQ(cache_files(dir).size(), 2u);
  const SweepSummary whole = run(kRunnable, opts);
  EXPECT_EQ(whole.executed, 0u);
  EXPECT_EQ(whole.cache_hits, 4u);
  opts.cache_dir.clear();
  EXPECT_EQ(whole.lines, run(kRunnable, opts).lines);
  std::filesystem::remove_all(dir);
}

TEST(SweepRunner, UncreatableCacheDirIsRejected) {
  const std::string file = fresh_dir("not_a_dir");
  std::ofstream(file) << "x";
  SweepOptions opts;
  opts.cache_dir = file + "/cache";
  expect_input_rejection([&] { (void)run(kRunnable, opts); },
                         "--sweep-cache: cannot create '" + file + "/cache'");
  std::filesystem::remove(file);
}

TEST(SweepRunner, CacheEntriesAreSharedAcrossIdenticalConfigs) {
  ScopedEnv ver("AXIHC_CODE_VERSION", "shared_test_v1");
  const std::string dir = fresh_dir("shared");
  // Two axis values that canonicalize to the same config (16 == 0x10): the
  // second cell must hit the first cell's entry within a single run.
  const std::string text =
      "[system]\nports = 2\n[ha0]\ntype = traffic\n[sweep]\ncycles = 2000\n"
      "axis.ha0.burst = 0x10 | 16\n";
  SweepOptions opts;
  opts.cache_dir = dir;
  opts.deterministic = true;
  ScopedEnv serial("AXIHC_BENCH_THREADS", "1");
  const SweepSummary s = run(text, opts);
  EXPECT_EQ(s.executed, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SweepRunner, StreamedRowsEqualSummaryInCellOrder) {
  // Twelve cells of uneven cost on four workers: jobs finish out of order,
  // yet every row reaches `out` in cell order and matches summary.lines.
  ScopedEnv threads("AXIHC_BENCH_THREADS", "4");
  const std::string text =
      "[system]\nports = 2\n[ha0]\ntype = traffic\n[ha1]\ntype = traffic\n"
      "[sweep]\ncycles = 3000\n"
      "axis.ha0.burst = 4 | 16 | 64\naxis.ha1.gap = 0 | 2 | 16 | 64\n";
  std::ostringstream out;
  SweepOptions opts;
  opts.out = &out;
  const SweepSummary s = run(text, opts);
  ASSERT_EQ(s.lines.size(), 12u);
  std::vector<std::string> streamed;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) streamed.push_back(line);
  EXPECT_EQ(streamed, s.lines);
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    EXPECT_EQ(parse_json(s.lines[i]).find("cell")->number,
              static_cast<double>(i));
  }
}

TEST(SweepRunner, DistantEqualConfigsSimulateOnceWithoutCache) {
  // Cells 0 and 10 canonicalize to the same config (16 == 0x10) and sit
  // more than 2x workers cells apart: one simulation serves both.
  ScopedEnv threads("AXIHC_BENCH_THREADS", "4");
  const std::string text =
      "[system]\nports = 2\n[ha0]\ntype = traffic\n[sweep]\ncycles = 2000\n"
      "axis.ha0.burst = 16 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 0x10\n";
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run(text, opts);
  ASSERT_EQ(s.shard_cells, 11u);
  EXPECT_EQ(s.executed, s.shard_cells - 1);
  EXPECT_EQ(s.cache_hits, 1u);
  const JsonValue first = parse_json(s.lines.front());
  const JsonValue last = parse_json(s.lines.back());
  EXPECT_EQ(first.find("config")->str_or(""), last.find("config")->str_or(""));
  EXPECT_EQ(first.find("state_digest")->str_or(""),
            last.find("state_digest")->str_or(""));
}

TEST(SweepRunner, ShardUnionEqualsUnsharded) {
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary whole = run(kRunnable, opts);

  std::vector<std::string> merged;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    SweepOptions sopts = opts;
    sopts.shard_index = shard;
    sopts.shard_count = 2;
    const SweepSummary part = run(kRunnable, sopts);
    EXPECT_EQ(part.shard_cells, 2u);
    merged.insert(merged.end(), part.lines.begin(), part.lines.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const std::string& a, const std::string& b) {
              return parse_json(a).find("cell")->number <
                     parse_json(b).find("cell")->number;
            });
  EXPECT_EQ(merged, whole.lines);
}

TEST(SweepRunner, PinsCatchDivergence) {
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run(kRunnable, opts);
  std::string pins;
  for (const std::string& line : s.lines) pins += line + "\n";

  std::ostringstream quiet;
  EXPECT_EQ(check_pins(s.lines, pins, quiet), 0u);

  // Corrupt one pinned state digest: exactly one mismatch, and it names
  // the cell.
  std::string bad = pins;
  const std::size_t pos = bad.find("\"state_digest\":\"0x");
  ASSERT_NE(pos, std::string::npos);
  bad[pos + 18] = bad[pos + 18] == 'f' ? '0' : 'f';
  std::ostringstream err;
  EXPECT_EQ(check_pins(s.lines, bad, err), 1u);
  EXPECT_NE(err.str().find("cell 0"), std::string::npos);

  // Pins for cells this shard never produced are ignored.
  EXPECT_EQ(check_pins({s.lines[1]}, pins, quiet), 0u);
}

TEST(SweepRunner, MalformedPinsAndRowsAreRejectedByLine) {
  std::ostringstream quiet;
  expect_input_rejection(
      [&] { (void)check_pins({}, "\n{\"cell\":0,", quiet); },
      "pin line 2: unexpected end of input");
  expect_input_rejection(
      [&] { (void)check_pins({"{\"cell\":}"}, "", quiet); },
      "row 1: expected a value at offset 8");
}

TEST(SweepRunner, PinsAndRowsWithoutDigestsAreRejected) {
  std::ostringstream quiet;
  expect_input_rejection(
      [&] { (void)check_pins({}, "{\"cell\":0,\"config\":\"0x1\"}", quiet); },
      "pin line 1 has no cell, config or state_digest");
  expect_input_rejection(
      [&] { (void)check_pins({"{\"cell\":0}"}, "", quiet); },
      "row 1 has no cell or config");
}

TEST(SweepRunner, RowsExposeRollups) {
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run(kRunnable, opts);
  for (const std::string& line : s.lines) {
    const JsonValue row = parse_json(line);
    EXPECT_GT(row.find("total_bytes")->number, 0.0) << line;
    EXPECT_GT(row.find("throughput_bpc")->number, 0.0) << line;
    // Plain hyperconnect + in-order memory: the WCLA bound model is armed
    // and untripped, so the slack is in (0, 1].
    EXPECT_GT(row.find("bound_checked")->number, 0.0) << line;
    EXPECT_EQ(row.find("bound_violations")->number, 0.0) << line;
    EXPECT_GT(row.find("wcla_slack")->number, 0.0) << line;
    EXPECT_GT(row.find("lut")->number, 0.0) << line;
    ASSERT_EQ(row.find("ha")->items.size(), 2u) << line;
  }
}

TEST(SweepRunner, RowDigestEqualsPlainRunOfTheCellConfig) {
  // Every row is an audited run, and observing never changes the simulated
  // state: a row's state_digest is that of a plain `axihc <cell> --digest`.
  SweepOptions opts;
  opts.deterministic = true;
  const IniFile ini = IniFile::parse(kRunnable);
  const SweepSpec spec = parse_sweep_spec(ini);
  const SweepSummary s = run_sweep(ini, opts);
  ASSERT_EQ(s.lines.size(), 4u);
  for (std::size_t cell = 0; cell < s.lines.size(); ++cell) {
    SCOPED_TRACE(cell);
    const JsonValue row = parse_json(s.lines[cell]);
    ConfiguredSystem plain(sweep_cell_config(ini, spec, cell));
    plain.run();
    EXPECT_EQ(row.find("state_digest")->str_or(""),
              hex_digest(plain.soc().sim().state_digest()));
  }
}

TEST(SweepRunner, SmartConnectCellsFlagMissingBound) {
  const std::string text =
      "[system]\ninterconnect = smartconnect\nports = 2\n"
      "[ha0]\ntype = traffic\n[sweep]\ncycles = 2000\n"
      "axis.ha0.burst = 8 | 16\n";
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run(text, opts);
  for (const std::string& line : s.lines) {
    EXPECT_EQ(parse_json(line).find("wcla_slack")->number, -1.0) << line;
  }
}

// ---------------------------------------------------------------------------
// Report

TEST(SweepReport, ParetoAndSensitivity) {
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run(kRunnable, opts);

  const std::string md = sweep_report_markdown(s.lines);
  EXPECT_NE(md.find("# Sweep report: unit"), std::string::npos);
  EXPECT_NE(md.find("## Pareto front"), std::string::npos);
  EXPECT_NE(md.find("## Sensitivity: hyperconnect.nominal_burst"),
            std::string::npos);
  EXPECT_NE(md.find("## Sensitivity: ha1.gap"), std::string::npos);
  EXPECT_NE(md.find("wcla_slack"), std::string::npos);

  const JsonValue rep = parse_json(sweep_report_json(s.lines));
  EXPECT_EQ(rep.find("rows")->number, 4.0);
  EXPECT_EQ(rep.find("metric")->str_or(""), "wcla_slack");
  const JsonValue* pareto = rep.find("pareto");
  ASSERT_NE(pareto, nullptr);
  ASSERT_FALSE(pareto->items.empty());
  // Every Pareto member must be a real cell, and no member may dominate
  // another (spot-check the invariant on the emitted front).
  const JsonValue* sens = rep.find("sensitivity");
  ASSERT_NE(sens, nullptr);
  ASSERT_EQ(sens->members.size(), 2u);
  // Each axis saw 2 values x 2 cells.
  for (const auto& [axis, values] : sens->members) {
    ASSERT_EQ(values.items.size(), 2u) << axis;
    for (const JsonValue& v : values.items) {
      EXPECT_EQ(v.find("cells")->number, 2.0) << axis;
    }
  }
}

TEST(SweepReport, FileWithoutRowsIsRejected) {
  // A campaign's output has no sweep rows.
  expect_input_rejection(
      [] { (void)sweep_report_markdown({"{\"campaign\":{\"runs\":1}}"}); },
      "--sweep-report: no sweep rows found");
}

TEST(SweepReport, FallsBackToTailLatencyWithoutBounds) {
  const std::string text =
      "[system]\ninterconnect = smartconnect\nports = 2\n"
      "[ha0]\ntype = traffic\n[sweep]\ncycles = 2000\n"
      "axis.ha0.burst = 8 | 16\n";
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run(text, opts);
  const JsonValue rep = parse_json(sweep_report_json(s.lines));
  EXPECT_EQ(rep.find("metric")->str_or(""), "neg_read_p99");
}

// ---------------------------------------------------------------------------
// Code version

TEST(CodeVersion, EnvOverridesBakedDigest) {
  const std::string baked = [] {
    ScopedEnv clear("AXIHC_CODE_VERSION", "");
    return code_version();
  }();
  EXPECT_FALSE(baked.empty());
  ScopedEnv env("AXIHC_CODE_VERSION", "pinned");
  EXPECT_EQ(code_version(), "pinned");
}

}  // namespace
}  // namespace axihc
