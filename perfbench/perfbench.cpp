// Benchmark program: runs one workload through the same public calls the
// axihc CLI makes and writes raw measurements for run.py to reduce.
//
//   perfbench --workload fig5_hc90|pareto1k_sweep|campaign_faults
//             --input spec.ini [--ref-input ref.ini] --out DIR --seconds S
//             --trace 0|1
//
// Untraced mode (--trace 0) measures the workload's set-up (parse and
// elaborate every system, no simulation) several times, then repeats the
// whole user-visible path for --seconds, each pass and repetition paired
// with the same one on the frozen reference build (reference.hpp) and its
// input (--ref-input). Traced mode (--trace 1) runs the
// path once untraced, then again with spans around every layer call, plus
// the fast-forward and latency-audit ablations. Results go to DIR/result.json
// and DIR/*.jsonl; worker counts come from AXIHC_BENCH_THREADS like every
// other job fan-out in the library.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/check.hpp"
#include "config/canonical.hpp"
#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "ha/dnn_accelerator.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "obs/latency_audit.hpp"
#include "reference.hpp"
#include "setup_pass.hpp"
#include "sim/parallel_jobs.hpp"
#include "sim/phase_check.hpp"
#include "sweep/runner.hpp"
#include "sweep/sweep.hpp"

namespace {

using axihc::ConfiguredSystem;
using axihc::IniFile;
using Clock = std::chrono::steady_clock;

/// Set-up is repeated until it has taken this long (and at least
/// kMinSetupReps times), so its median is not one noisy sample.
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 1000;
/// The timed path runs at least this often, even past --seconds: once per
/// sweep shard.
constexpr std::size_t kMinReps = perfbench_ref::kSweepShards;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this process image in KiB. getrusage's ru_maxrss
/// also counts the parent's footprint at fork time, which for a program
/// started from Python is larger than its own.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return axihc::peak_rss_kb();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string join(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

std::string numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) items.push_back(num(v));
  return join(items);
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += quoted(key) + ":" + json;
    return *this;
  }
  JsonObject& number(const std::string& key, double v) {
    return raw(key, num(v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& text(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AXIHC_CHECK_MSG(in, "cannot read '" << path << "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  AXIHC_CHECK_MSG(out, "cannot write '" << path << "'");
  out << text;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  write_file(path, text);
}

// --- spans -----------------------------------------------------------------

/// In-memory span recorder. Spans come from the job workers too, so
/// recording is guarded; the on/off switch only flips between fan-outs.
class Tracer {
 public:
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  std::uint64_t next_id() { return ++last_id_; }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void record(std::string line) {
    const std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(std::move(line));
  }
  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> last_id_{0};
  const Clock::time_point origin_ = Clock::now();
  std::mutex mu_;
  std::vector<std::string> lines_;  // guarded by mu_
};

Tracer g_tracer;
/// Innermost open span of this thread: the default parent of a new span.
thread_local std::uint64_t t_open_span = 0;

/// One layer-boundary span: name, request id, start, end and parent. A no-op
/// while the tracer is off.
class Span {
 public:
  Span(const char* name, std::string request)
      : Span(name, std::move(request), t_open_span) {}
  Span(const char* name, std::string request, std::uint64_t parent) {
    if (!g_tracer.on()) return;
    name_ = name;
    request_ = std::move(request);
    parent_ = parent;
    id_ = g_tracer.next_id();
    restore_ = t_open_span;
    t_open_span = id_;
    start_ns_ = g_tracer.now_ns();
  }
  ~Span() {
    if (id_ == 0) return;
    const std::int64_t end_ns = g_tracer.now_ns();
    t_open_span = restore_;
    g_tracer.record(JsonObject()
                        .count("id", id_)
                        .count("parent", parent_)
                        .text("name", name_)
                        .text("req", request_)
                        .raw("start_ns", std::to_string(start_ns_))
                        .raw("end_ns", std::to_string(end_ns))
                        .str());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  const char* name_ = "";
  std::string request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t restore_ = 0;
  std::int64_t start_ns_ = 0;
};

// --- simulated statistics --------------------------------------------------

/// Cycles per latency-cause bucket, summed over ports and directions. The
/// audit exposes its cause split only through the roll-up (percent of each
/// port+dir's latency sum), so the split is re-weighted by that sum.
std::map<std::string, double> cause_cycles(const axihc::LatencyAudit& audit) {
  std::ostringstream rollup;
  audit.write_rollup(rollup);
  std::map<std::string, double> out;
  std::istringstream in(rollup.str());
  double weight = 0.0;
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    std::string first;
    words >> first;
    if (!first.empty() && first[0] >= '0' && first[0] <= '9') {
      std::string dir;
      words >> dir;
      weight = static_cast<double>(
          audit
              .histogram(static_cast<axihc::PortIndex>(std::stoul(first)),
                         dir == "w")
              .sum());
    } else if (first == "causes:") {
      for (std::string item; words >> item;) {
        const auto eq = item.find('=');
        if (eq == std::string::npos) continue;
        const double pct = std::strtod(item.c_str() + eq + 1, nullptr);
        out[item.substr(0, eq)] += weight * pct / 100.0;
      }
    }
  }
  return out;
}

/// Everything a run simulated, as one JSON object: the fingerprint run.py
/// compares across runs and sums into the work counts.
std::string system_stats(ConfiguredSystem& sys, const std::string& id) {
  axihc::SocSystem& soc = sys.soc();
  JsonObject o;
  o.text("id", id)
      .count("cycles", soc.sim().now())
      .text("digest", hex(soc.sim().state_digest()));

  std::vector<std::string> has;
  for (std::size_t i = 0; i < sys.ha_count(); ++i) {
    const axihc::MasterStats& s = sys.ha(i).stats();
    has.push_back(
        JsonObject()
            .text("type", sys.ha_type(i))
            .count("txns", s.reads_completed + s.writes_completed)
            .count("bytes", s.bytes_read + s.bytes_written)
            .count("failed", s.reads_failed + s.writes_failed)
            .count("read_max",
                   s.read_latency.count() > 0 ? s.read_latency.max() : 0)
            .str());
  }
  o.raw("ha", join(has));

  if (sys.ha_count() > 0) {
    if (const auto* dnn =
            dynamic_cast<const axihc::DnnAccelerator*>(&sys.ha(0))) {
      const std::vector<axihc::Cycle>& done = dnn->frame_completion_cycles();
      // Steady state: the first frame is warm-up, so fps spans the
      // completions after it.
      double fps = 0.0;
      if (done.size() >= 2 && done.back() > done.front()) {
        fps = static_cast<double>(done.size() - 1) * sys.platform().clock_hz /
              static_cast<double>(done.back() - done.front());
      }
      o.count("frames", dnn->frames_completed()).number("fps", fps);
    }
  }

  if (const axihc::HyperConnect* hc = soc.hyperconnect()) {
    std::uint64_t subtxns = 0;
    for (axihc::PortIndex p = 0; p < soc.config().num_ports; ++p) {
      subtxns += hc->supervisor(p).subtransactions_issued();
    }
    o.count("subtxns", subtxns).count("recharges", hc->recharges());
  }
  const axihc::MemoryController& mem = soc.memory_controller();
  o.count("mem_busy", mem.busy_cycles())
      .count("row_hits", mem.row_hits())
      .count("row_misses", mem.row_misses());

  if (const axihc::LatencyAudit* audit = sys.latency_audit()) {
    JsonObject causes;
    for (const auto& [name, cycles] : cause_cycles(*audit)) {
      causes.number(name, cycles);
    }
    o.raw("causes", causes.str())
        .count("bound_violations", audit->bound_violations());
  }
  return o.str();
}

// --- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::string input;
  std::string ref_input;
  std::string out;
  double seconds = 10.0;
  bool trace = false;
};

/// Repeats `once` until both the time budget and the minimum repetition
/// count are met, or the maximum is reached.
void repeat(double budget_s, std::size_t min_reps, std::size_t max_reps,
            const std::function<void()>& once) {
  const auto t0 = Clock::now();
  for (std::size_t n = 0;
       n < max_reps && (n < min_reps || since(t0) < budget_s); ++n) {
    once();
  }
}

/// Peak RSS of the build under test, read before the reference first runs.
long g_peak_rss_kb = -1;

/// The untraced measurement of every workload. After one warm-up repetition
/// of each build it alternates the build under test with the frozen
/// reference (reference.hpp): set-up pass (setup_pass.hpp) against set-up
/// pass on `text` and the reference's input, then repetition against
/// repetition for opt.seconds. A swing in host speed hits both halves of a
/// pair alike, so run.py reports each pair's ratio. `rep(i)` is repetition
/// i, -1 being the warm-up, and returns its wall seconds.
JsonObject paired(const Options& opt, const std::string& text,
                  const std::function<double(long)>& rep) {
  const std::string ref_text = read_file(opt.ref_input);
  (void)rep(-1);
  g_peak_rss_kb = peak_rss_kb();
  (void)perfbench_ref::rep(opt.workload, ref_text, opt.out, 0);

  std::vector<double> setup_s;
  std::vector<double> ref_setup_s;
  repeat(kSetupSeconds, kMinSetupReps, kMaxSetupReps, [&] {
    const auto t0 = Clock::now();
    setup_pass(opt.workload, text);
    setup_s.push_back(since(t0));
    ref_setup_s.push_back(perfbench_ref::setup(opt.workload, ref_text));
  });
  std::vector<double> wall_s;
  std::vector<double> ref_wall_s;
  std::vector<double> ref_cycles;
  std::vector<double> ref_cells;
  repeat(opt.seconds, kMinReps, SIZE_MAX, [&] {
    const auto i = static_cast<long>(wall_s.size());
    wall_s.push_back(rep(i));
    const perfbench_ref::Rep r =
        perfbench_ref::rep(opt.workload, ref_text, opt.out, i);
    ref_wall_s.push_back(r.wall_s);
    ref_cycles.push_back(r.cycles);
    ref_cells.push_back(r.cells);
  });
  JsonObject out;
  out.raw("setup_s", numbers(setup_s))
      .raw("ref_setup_s", numbers(ref_setup_s))
      .raw("wall_s", numbers(wall_s))
      .raw("ref_wall_s", numbers(ref_wall_s))
      .raw("ref_cycles", numbers(ref_cycles))
      .raw("ref_cells", numbers(ref_cells));
  return out;
}

/// Times one run() of a freshly built system; the system is kept so its
/// statistics can be read afterwards.
double timed_run(ConfiguredSystem& sys, axihc::Cycle cycles = 0) {
  const auto t0 = Clock::now();
  sys.run(cycles);
  return since(t0);
}

/// The fast-forward and audit ablations, summed over a subset of systems:
/// run() with audit and fast-forward (what sweeps and campaigns do), audit
/// without fast-forward, and fast-forward without audit. The three variants
/// of each system run back to back so host drift hits them alike.
struct Ablation {
  double audit_ff_s = 0.0;
  double audit_noff_s = 0.0;
  double noaudit_ff_s = 0.0;
  std::vector<std::string> stats;
};

using MakeSystem = std::function<std::unique_ptr<ConfiguredSystem>()>;

void ablate(const MakeSystem& build, axihc::Cycle cycles, const std::string& id,
            Ablation& acc) {
  struct Variant {
    bool audit;
    bool ff;
    double* secs;
    const char* tag;
  };
  const Variant variants[] = {{true, true, &acc.audit_ff_s, "audit_ff"},
                              {true, false, &acc.audit_noff_s, "audit_noff"},
                              {false, true, &acc.noaudit_ff_s, "noaudit_ff"}};
  for (const Variant& v : variants) {
    auto sys = build();
    sys->observe_config().latency_audit = v.audit;
    sys->soc().sim().set_fast_forward(v.ff);
    *v.secs += timed_run(*sys, cycles);
    acc.stats.push_back(system_stats(*sys, id + ":" + v.tag));
  }
}

std::string ablation_json(const Ablation& a, std::size_t systems) {
  return JsonObject()
      .count("systems", systems)
      .number("audit_ff_s", a.audit_ff_s)
      .number("audit_noff_s", a.audit_noff_s)
      .number("noaudit_ff_s", a.noaudit_ff_s)
      .str();
}

// --- fig5_hc90: one long plain `axihc <ini>` run --------------------------

/// The plain CLI path: parse, elaborate, run, report, digest.
struct PlainRun {
  double wall_s = 0.0;
  double run_s = 0.0;
  std::string stats;
};

PlainRun plain_run(const std::string& text, const std::string& id) {
  PlainRun r;
  const auto t0 = Clock::now();
  std::unique_ptr<ConfiguredSystem> sys;
  {
    Span root("fig5.path", id);
    IniFile ini;
    {
      Span s("config.parse", id);
      ini = IniFile::parse(text);
    }
    {
      Span s("config.build", id);
      sys = std::make_unique<ConfiguredSystem>(ini);
    }
    {
      Span s("sim.run", id);
      r.run_s = timed_run(*sys);
    }
    std::string report;
    {
      Span s("sim.report", id);
      report = sys->report();
    }
    {
      Span s("sim.digest", id);
      (void)sys->soc().sim().state_digest();
    }
    AXIHC_CHECK(!report.empty());
  }
  r.wall_s = since(t0);
  r.stats = system_stats(*sys, id);
  return r;
}

std::string fig5(const Options& opt) {
  const std::string text = read_file(opt.input);
  JsonObject out;
  std::vector<std::string> stats;
  if (!opt.trace) {
    std::vector<double> cpus;
    out = paired(opt, text, [&](long i) {
      const double cpu0 = cpu_seconds();
      const PlainRun r = plain_run(text, "fig5:rep" + std::to_string(i));
      if (i >= 0) {
        cpus.push_back(cpu_seconds() - cpu0);
        stats.push_back(r.stats);
      }
      return r.wall_s;
    });
    out.raw("cpu_s", numbers(cpus));
  } else {
    const double cpu0 = cpu_seconds();
    const PlainRun plain = plain_run(text, "fig5:timed");
    out.number("cpu_s", cpu_seconds() - cpu0);
    g_tracer.set_on(true);
    const PlainRun traced = plain_run(text, "fig5:traced");
    g_tracer.set_on(false);
    out.number("untraced_wall_s", plain.wall_s)
        .number("traced_wall_s", traced.wall_s);
    stats = {plain.stats, traced.stats};

    // The ablations change one setting of the plain path each, on the same
    // input and length; the timed run is their base.
    const IniFile ini = IniFile::parse(text);
    ConfiguredSystem ff_off(ini);
    ff_off.soc().sim().set_fast_forward(false);
    const double ff_off_s = timed_run(ff_off);
    stats.push_back(system_stats(ff_off, "fig5:ff_off"));
    ConfiguredSystem audit_on(ini);
    audit_on.observe_config().latency_audit = true;
    const double audit_on_s = timed_run(audit_on);
    stats.push_back(system_stats(audit_on, "fig5:audit_on"));
    out.raw("ablation", JsonObject()
                            .count("systems", 1)
                            .number("base_s", plain.run_s)
                            .number("ff_off_s", ff_off_s)
                            .number("audit_on_s", audit_on_s)
                            .str());
  }
  write_lines(opt.out + "/stats.jsonl", stats);
  return out.str();
}

// --- pareto1k_sweep: run_sweep cold into a fresh cache, then warm ---------

/// One cell replayed through the public calls run_sweep makes.
std::string replay_cell(const IniFile& ini, const axihc::SweepSpec& spec,
                        std::size_t cell, std::uint64_t parent) {
  const std::string id = "sweep:" + std::to_string(cell);
  Span root("sweep.cell", id, parent);
  IniFile cfg;
  {
    Span s("sweep.expand", id);
    cfg = axihc::sweep_cell_config(ini, spec, cell);
  }
  {
    Span s("config.digest", id);
    (void)axihc::config_digest(cfg);
  }
  std::unique_ptr<ConfiguredSystem> sys;
  try {
    Span s("config.build", id);
    sys = std::make_unique<ConfiguredSystem>(cfg);
  } catch (const axihc::ModelError&) {
    return JsonObject().text("id", id).text("shape", "error").str();
  }
  bool disproved = false;
  {
    Span s("prove.screen", id);
    disproved = sys->prove().disproved();
  }
  if (disproved) {
    return JsonObject().text("id", id).text("shape", "disproved").str();
  }
  sys->observe_config().latency_audit = true;
  {
    Span s("sim.run", id);
    sys->run();
  }
  {
    Span s("sim.digest", id);
    (void)sys->soc().sim().state_digest();
  }
  return system_stats(*sys, id);
}

std::string sweep(const Options& opt) {
  const std::string text = read_file(opt.input);
  JsonObject out;

  // Cold pass into a fresh cache, then the warm pass against it.
  struct Pass {
    double cold_s = 0.0;
    double warm_s = 0.0;
    double cpu_s = 0.0;
  };
  const auto cold_and_warm = [&opt, &text](const std::string& rep,
                                           std::size_t shard,
                                           std::size_t shards) {
    Pass p;
    const std::string cache = opt.out + "/cache" + rep;
    axihc::SweepOptions so;
    so.cache_dir = cache;
    so.shard_index = shard;
    so.shard_count = shards;
    const double cpu0 = cpu_seconds();
    auto t0 = Clock::now();
    axihc::SweepSummary cold;
    {
      Span s("sweep.run_sweep", "sweep:cold");
      cold = axihc::run_sweep(IniFile::parse(text), so);
    }
    p.cold_s = since(t0);
    p.cpu_s = cpu_seconds() - cpu0;
    t0 = Clock::now();
    axihc::SweepSummary warm;
    {
      Span s("sweep.run_sweep", "sweep:warm");
      warm = axihc::run_sweep(IniFile::parse(text), so);
    }
    p.warm_s = since(t0);
    write_lines(opt.out + "/cold" + rep + ".jsonl", cold.lines);
    write_lines(opt.out + "/warm" + rep + ".jsonl", warm.lines);
    std::filesystem::remove_all(cache);
    return p;
  };

  if (!opt.trace) {
    std::vector<double> warm;
    std::vector<double> cpus;
    out = paired(opt, text, [&](long i) {
      const long shards = perfbench_ref::kSweepShards;
      const Pass p = i < 0 ? cold_and_warm("_warmup", 0, shards)
                           : cold_and_warm(std::to_string(i), i % shards,
                                           shards);
      if (i >= 0) {
        warm.push_back(p.warm_s);
        cpus.push_back(p.cpu_s);
      }
      return p.cold_s;
    });
    out.raw("warm_s", numbers(warm)).raw("cpu_s", numbers(cpus));
    return out.str();
  }

  g_tracer.set_on(true);
  const Pass p = cold_and_warm("0", 0, 1);
  out.number("cold_s", p.cold_s).number("warm_s", p.warm_s).number("cpu_s",
                                                                   p.cpu_s);

  // Replay every cell through the same public calls, over run_parallel_jobs
  // at the same worker count: once without spans, once with.
  IniFile ini;
  axihc::SweepSpec spec;
  {
    Span s("config.parse", "sweep");
    ini = IniFile::parse(text);
  }
  {
    Span s("sweep.spec", "sweep");
    spec = axihc::parse_sweep_spec(ini);
  }
  const auto replay = [&ini, &spec]() {
    Span root("sweep.replay", "sweep");
    const std::uint64_t parent = root.id();
    std::vector<std::function<std::string()>> jobs;
    for (std::size_t c = 0; c < spec.cell_count(); ++c) {
      jobs.push_back([&ini, &spec, c, parent] {
        return replay_cell(ini, spec, c, parent);
      });
    }
    return axihc::run_parallel_jobs<std::string>(std::move(jobs));
  };
  g_tracer.set_on(false);
  auto t0 = Clock::now();
  (void)replay();
  const double plain_s = since(t0);
  g_tracer.set_on(true);
  t0 = Clock::now();
  const std::vector<std::string> stats = replay();
  const double traced_s = since(t0);
  g_tracer.set_on(false);
  out.number("untraced_wall_s", plain_s).number("traced_wall_s", traced_s);
  write_lines(opt.out + "/stats.jsonl", stats);

  // Ablations on a fixed subset: every 9th cell. 9 is coprime to every axis
  // length, so the subset takes every value of every axis.
  Ablation a;
  std::size_t systems = 0;
  for (std::size_t c = 0; c < spec.cell_count(); c += 9) {
    const IniFile cfg = axihc::sweep_cell_config(ini, spec, c);
    try {
      if (ConfiguredSystem(cfg).prove().disproved()) continue;
    } catch (const axihc::ModelError&) {
      continue;
    }
    ablate([&cfg] { return std::make_unique<ConfiguredSystem>(cfg); }, 0,
           "sweep:" + std::to_string(c), a);
    ++systems;
  }
  out.raw("ablation", ablation_json(a, systems));
  write_lines(opt.out + "/ablation.jsonl", a.stats);
  return out.str();
}

// --- campaign_faults: run_campaign --------------------------------------

/// One campaign system replayed through the public calls run_campaign
/// makes; `run` < 0 is the baseline.
std::string replay_run(const IniFile& ini, const axihc::CampaignSpec& spec,
                       long long run, std::uint64_t parent) {
  const std::string id =
      run < 0 ? std::string("campaign:baseline")
              : "campaign:" + std::to_string(run);
  Span root("campaign.run", id, parent);
  axihc::FaultScenario scenario;
  if (run < 0) {
    scenario = baseline_scenario(spec);
  } else {
    Span s("campaign.scenario", id);
    scenario = axihc::campaign_scenario(spec, static_cast<std::uint64_t>(run));
  }
  std::unique_ptr<ConfiguredSystem> sys;
  {
    Span s("config.build", id);
    sys = std::make_unique<ConfiguredSystem>(ini, scenario);
  }
  sys->observe_config().latency_audit = true;
  {
    Span s("sim.run", id);
    sys->run(spec.cycles);
  }
  {
    Span s("sim.digest", id);
    (void)sys->soc().sim().state_digest();
  }
  return system_stats(*sys, id);
}

std::string campaign(const Options& opt) {
  const std::string text = read_file(opt.input);
  JsonObject out;

  const auto timed_campaign = [&text](const char* req, double* cpu) {
    const double cpu0 = cpu_seconds();
    Span s("campaign.run_campaign", req);
    axihc::CampaignOutput o = axihc::run_campaign(IniFile::parse(text));
    if (cpu != nullptr) *cpu = cpu_seconds() - cpu0;
    return o;
  };

  if (!opt.trace) {
    std::vector<double> cpus;
    std::vector<std::string> oks;
    out = paired(opt, text, [&](long i) {
      const auto t0 = Clock::now();
      double cpu = 0.0;
      const axihc::CampaignOutput o = timed_campaign("campaign", &cpu);
      const double wall = since(t0);
      if (i >= 0) {
        write_lines(opt.out + "/campaign" + std::to_string(i) + ".jsonl",
                    o.lines);
        cpus.push_back(cpu);
        oks.push_back(o.ok() ? "true" : "false");
      }
      return wall;
    });
    out.raw("cpu_s", numbers(cpus)).raw("ok", join(oks));
    return out.str();
  }

  g_tracer.set_on(true);
  double cpu = 0.0;
  auto t0 = Clock::now();
  const axihc::CampaignOutput timed = timed_campaign("campaign:timed", &cpu);
  out.number("wall_s", since(t0)).number("cpu_s", cpu);
  const axihc::CampaignOutput traced =
      timed_campaign("campaign:traced", nullptr);
  write_lines(opt.out + "/campaign0.jsonl", timed.lines);
  write_lines(opt.out + "/campaign_traced.jsonl", traced.lines);
  out.raw("ok", join({timed.ok() ? "true" : "false",
                      traced.ok() ? "true" : "false"}));

  IniFile ini;
  axihc::CampaignSpec spec;
  {
    Span s("config.parse", "campaign");
    ini = IniFile::parse(text);
  }
  {
    Span s("campaign.spec", "campaign");
    spec = axihc::parse_campaign_spec(ini);
  }
  const auto replay = [&ini, &spec]() {
    Span root("campaign.replay", "campaign");
    const std::uint64_t parent = root.id();
    std::vector<std::function<std::string()>> jobs;
    for (long long r = -1; r < static_cast<long long>(spec.runs); ++r) {
      jobs.push_back([&ini, &spec, r, parent] {
        return replay_run(ini, spec, r, parent);
      });
    }
    return axihc::run_parallel_jobs<std::string>(std::move(jobs));
  };
  g_tracer.set_on(false);
  t0 = Clock::now();
  (void)replay();
  const double plain_s = since(t0);
  g_tracer.set_on(true);
  t0 = Clock::now();
  const std::vector<std::string> stats = replay();
  const double traced_s = since(t0);
  g_tracer.set_on(false);
  out.number("untraced_wall_s", plain_s).number("traced_wall_s", traced_s);
  write_lines(opt.out + "/stats.jsonl", stats);

  // Ablations on a fixed subset: every 8th run.
  Ablation a;
  std::size_t systems = 0;
  for (std::uint64_t r = 0; r < spec.runs; r += 8) {
    const axihc::FaultScenario scenario = axihc::campaign_scenario(spec, r);
    ablate([&ini, &scenario] {
             return std::make_unique<ConfiguredSystem>(ini, scenario);
           },
           spec.cycles, "campaign:" + std::to_string(r), a);
    ++systems;
  }
  out.raw("ablation", ablation_json(a, systems));
  write_lines(opt.out + "/ablation.jsonl", a.stats);
  return out.str();
}

// --- build provenance ----------------------------------------------------

/// Why this build must not report numbers, or "" when it may.
std::string unfit_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  if (axihc::kPhaseCheckAvailable) return "AXIHC_PHASE_CHECK build";
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-march=native") != nullptr) {
    return "host-tuned (-march=native) build";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--input") {
      opt.input = value;
    } else if (key == "--ref-input") {
      opt.ref_input = value;
    } else if (key == "--out") {
      opt.out = value;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      std::cerr << "perfbench: unknown option '" << key << "'\n";
      return 2;
    }
  }
  if (opt.input.empty() || opt.out.empty() || opt.seconds <= 0.0 ||
      (!opt.trace && opt.ref_input.empty())) {
    std::cerr << "usage: perfbench --workload W --input INI"
                 " [--ref-input INI] --out DIR --seconds S --trace 0|1\n";
    return 2;
  }
  const std::string unfit = unfit_build();
  if (!unfit.empty()) {
    std::cerr << "perfbench: refusing to measure: " << unfit << "\n";
    return 3;
  }

  try {
    std::string body;
    if (opt.workload == "fig5_hc90") {
      body = fig5(opt);
    } else if (opt.workload == "pareto1k_sweep") {
      body = sweep(opt);
    } else if (opt.workload == "campaign_faults") {
      body = campaign(opt);
    } else {
      std::cerr << "perfbench: unknown workload '" << opt.workload
                << "'\n";
      return 2;
    }
    write_lines(opt.out + "/spans.jsonl", g_tracer.lines());
    write_file(opt.out + "/result.json",
               JsonObject()
                   .text("workload", opt.workload)
                   .raw("run", body)
                   .count("workers", axihc::parallel_job_threads())
                   .raw("peak_rss_kb",
                        std::to_string(g_peak_rss_kb >= 0 ? g_peak_rss_kb
                                                          : peak_rss_kb()))
                   .text("compiler", PERFBENCH_COMPILER)
                   .text("build_type", PERFBENCH_BUILD_TYPE)
                   .text("cxx_flags", PERFBENCH_CXX_FLAGS)
                   .str() +
                   "\n");
  } catch (const std::exception& e) {  // either build's ModelError included
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
