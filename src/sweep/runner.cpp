#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/check.hpp"
#include "common/json_write.hpp"
#include "config/canonical.hpp"
#include "config/system_builder.hpp"
#include "obs/latency_audit.hpp"
#include "prove/prove.hpp"
#include "resources/resources.hpp"
#include "sim/parallel_jobs.hpp"
#include "sweep/code_version.hpp"
#include "sweep/json_mini.hpp"

namespace axihc {

namespace {

/// The prover columns shared by annotated and simulated rows. The
/// certificate digest rides in the fragment, so cached certificates live
/// under the same (config digest, code version) key as every other cached
/// measurement and invalidate with the code-version digest.
std::string prove_fields(const ProveReport& proof) {
  std::ostringstream os;
  os << "\"prove_verdict\":\"" << to_string(proof.verdict())
     << "\",\"prove_certificate\":\""
     << hex_digest(proof.certificate_digest()) << "\"";
  return os.str();
}

/// The config-independent part of one cell's row: everything a rerun of the
/// same (config, code) pair reproduces bit-exactly, and therefore exactly
/// what the cache stores. No cell index, no axis values — two cells whose
/// configs collapse to the same canonical form share this fragment.
///
/// Three fragment shapes, distinguished by the leading field:
///   "cycles":...         a simulated cell (plus prove_* annotation columns)
///   "prove_verdict":...  a statically disproved cell — annotated, never
///                        simulated (no cycles/state_digest)
///   "error":"..."        a config the builder rejects — a structured row
///                        instead of a mid-sweep abort
std::string execute_cell(const IniFile& cfg) {
  std::unique_ptr<ConfiguredSystem> sys;
  try {
    sys = std::make_unique<ConfiguredSystem>(cfg);
  } catch (const ModelError& e) {
    return "\"error\":\"" + json_escape(e.what()) + "\"";
  }

  // Static screen (src/prove): a disproved cell would simulate a system
  // with a certified refutation (a starved port) — burn no cycles on it,
  // emit the verdict instead.
  const ProveReport proof = sys->prove();
  if (proof.disproved()) {
    std::ostringstream os;
    os << prove_fields(proof) << ",\"prove_detail\":\"";
    bool first = true;
    for (const ProveCheck& c : proof.checks) {
      if (c.verdict != ProveVerdict::kDisproved) continue;
      if (!first) os << "; ";
      first = false;
      os << json_escape(c.id + ": " + c.detail);
    }
    os << "\"";
    return os.str();
  }

  // Every cell runs the latency auditor's bound check: its wcrt_*
  // bounds (src/analysis/wcla.hpp) are the sweep's predictability metric.
  // The row reads nothing of the provenance part (hops, causes,
  // histograms, flight records), so it is left out; replaying the cell
  // config with `axihc --latency-audit --flight-out` yields it. The audit
  // touches no simulated state: a row's state_digest is that of a plain
  // `axihc <cell> --digest` run.
  sys->observe_config().latency_bounds = true;
  const Cycle cycles = sys->run();

  std::uint64_t total_bytes = 0;
  Cycle read_max = 0;
  Cycle read_p99 = 0;
  Cycle write_max = 0;
  for (std::size_t i = 0; i < sys->ha_count(); ++i) {
    const MasterStats& s = sys->ha(i).stats();
    total_bytes += s.bytes_read + s.bytes_written;
    if (s.read_latency.count() > 0) {
      read_max = std::max(read_max, s.read_latency.max());
      read_p99 = std::max(read_p99, s.read_latency.percentile(99.0));
    }
    if (s.write_latency.count() > 0) {
      write_max = std::max(write_max, s.write_latency.max());
    }
  }

  const LatencyAudit* audit = sys->latency_audit();
  AXIHC_CHECK(audit != nullptr);
  // Bound slack: how far the observed worst case stayed below the WCLA
  // bound (1.0 = untouched, 0.0 = at the bound, negative = violated).
  // -1.0 flags "no analytic bound for this configuration" (SmartConnect,
  // out-of-order mode, FR-FCFS memory).
  const double wcla_slack = audit->bound_checked() > 0
                                ? 1.0 - audit->max_latency_ratio()
                                : -1.0;

  const SocConfig& soc_cfg = sys->soc().config();
  const ResourceUsage res =
      soc_cfg.kind == InterconnectKind::kHyperConnect
          ? estimate_hyperconnect(soc_cfg.hc)
          : estimate_smartconnect(soc_cfg.num_ports);

  std::ostringstream os;
  os << "\"cycles\":" << cycles << ",\"state_digest\":\""
     << hex_digest(sys->soc().sim().state_digest()) << "\",\"total_bytes\":"
     << total_bytes << ",\"throughput_bpc\":"
     << json_double(cycles > 0 ? static_cast<double>(total_bytes) /
                                     static_cast<double>(cycles)
                               : 0.0)
     << ",\"read_max\":" << read_max << ",\"read_p99\":" << read_p99
     << ",\"write_max\":" << write_max << ",\"bound_checked\":"
     << audit->bound_checked() << ",\"bound_violations\":"
     << audit->bound_violations() << ",\"wcla_slack\":"
     << json_double(wcla_slack) << ",\"lut\":" << res.lut << ",\"ff\":"
     << res.ff << ",\"bram\":" << res.bram << ",\"dsp\":" << res.dsp
     << ",\"ha\":[";
  for (std::size_t i = 0; i < sys->ha_count(); ++i) {
    const MasterStats& s = sys->ha(i).stats();
    if (i != 0) os << ",";
    os << "{\"type\":\"" << json_escape(sys->ha_type(i))
       << "\",\"bytes_read\":"
       << s.bytes_read << ",\"bytes_written\":" << s.bytes_written
       << ",\"failed\":" << (s.reads_failed + s.writes_failed)
       << ",\"read_p50\":"
       << (s.read_latency.count() > 0 ? s.read_latency.percentile(50.0) : 0)
       << ",\"read_p99\":"
       << (s.read_latency.count() > 0 ? s.read_latency.percentile(99.0) : 0)
       << ",\"read_max\":"
       << (s.read_latency.count() > 0 ? s.read_latency.max() : 0)
       << ",\"write_max\":"
       << (s.write_latency.count() > 0 ? s.write_latency.max() : 0) << "}";
  }
  os << "]," << prove_fields(proof);
  return os.str();
}

// The result cache: one append-only JSON-lines log per writer, named
// `<code>-<host>-<pid>-<n>.jsonl`, one line per executed config:
// `{"config":"0x<16 hex>",<fragment>}`. A writer only ever appends to the
// file it created, so concurrent shards sharing a directory never write to
// the same file, and a torn last line can only lose that line.
constexpr std::string_view kLogLinePrefix = "{\"config\":\"0x";
constexpr std::size_t kLogFragmentOffset = kLogLinePrefix.size() + 16 + 2;

/// This host's name as a file-name part: no '-', so a log name splits into
/// code, host, pid and counter at its last three dashes.
std::string host_tag() {
  std::string host;
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (::gethostname(buf, sizeof buf - 1) == 0) host = buf;
#endif
  if (host.empty()) host = "host";
  for (char& ch : host) {
    const bool keep = std::isalnum(static_cast<unsigned char>(ch)) != 0 ||
                      ch == '_' || ch == '.';
    if (!keep) ch = '_';
  }
  return host;
}

/// Whether `name` is a log of code version `code`: `<code>-` followed by
/// exactly three more dash-separated parts and `.jsonl`.
bool is_log_of(const std::string& name, const std::string& code) {
  const std::string prefix = code + "-";
  return name.starts_with(prefix) && name.ends_with(".jsonl") &&
         std::ranges::count(std::string_view(name).substr(prefix.size()),
                            '-') == 2;
}

/// The config digest and fragment of one log line, when the line is a
/// complete JSON object of a known fragment shape (simulated / statically
/// disproved / build error). Anything else (a torn write, a foreign line)
/// is a miss: the cell re-runs rather than splice a malformed row.
bool parse_log_line(const std::string& line, std::uint64_t* config,
                    std::string_view* fragment) {
  if (line.size() <= kLogFragmentOffset || !line.starts_with(kLogLinePrefix) ||
      line.compare(kLogFragmentOffset - 2, 2, "\",") != 0 ||
      line.back() != '}') {
    return false;
  }
  const char* hex = line.data() + kLogLinePrefix.size();
  const auto [end, ec] = std::from_chars(hex, hex + 16, *config, 16);
  if (ec != std::errc() || end != hex + 16) return false;
  *fragment = std::string_view(line).substr(
      kLogFragmentOffset, line.size() - kLogFragmentOffset - 1);
  return fragment->starts_with("\"cycles\":") ||
         fragment->starts_with("\"prove_verdict\":") ||
         fragment->starts_with("\"error\":");
}

/// Reads code version `code`'s logs in `dir` (in file-name order) and
/// returns, per job, the fragment of the first valid line for its config
/// ("" = miss). Lines for configs this run does not need are skipped
/// unparsed, so memory stays bounded by the sweep's own cells.
std::vector<std::string> read_logs(
    const std::string& dir, const std::string& code,
    const std::unordered_map<std::uint64_t, std::size_t>& job_for_config) {
  std::vector<std::string> fragments(job_for_config.size());
  std::vector<std::filesystem::path> logs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (is_log_of(entry.path().filename().string(), code)) {
      logs.push_back(entry.path());
    }
  }
  std::sort(logs.begin(), logs.end());
  for (const std::filesystem::path& log : logs) {
    std::ifstream in(log, std::ios::binary);
    for (std::string line; std::getline(in, line);) {
      std::uint64_t config = 0;
      std::string_view fragment;
      if (!parse_log_line(line, &config, &fragment)) continue;
      const auto it = job_for_config.find(config);
      if (it == job_for_config.end() || !fragments[it->second].empty()) {
        continue;
      }
      try {
        (void)parse_json(line, log.string());
      } catch (const ModelError&) {
        continue;
      }
      fragments[it->second] = fragment;
    }
  }
  return fragments;
}

struct CloseFile {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, CloseFile>;

/// Creates a new log for this writer in `dir` (nullptr if it cannot). The
/// counter keeps two runs in one process apart; "x" (exclusive create)
/// keeps this writer off any file another writer made.
File create_log(const std::string& dir, const std::string& code) {
  static std::atomic<unsigned> next{0};
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const std::string stem =
      dir + "/" + code + "-" + host_tag() + "-" + std::to_string(pid) + "-";
  for (;;) {
    const std::string path = stem + std::to_string(next++) + ".jsonl";
    File file(std::fopen(path.c_str(), "wbx"));
    if (file || errno != EEXIST) return file;
  }
}

/// This run's log, created on the first append. The cache is best-effort:
/// if the file cannot be created or written, rows are unaffected.
class LogWriter {
 public:
  LogWriter(std::string dir, std::string code)
      : dir_(std::move(dir)), code_(std::move(code)) {}

  void append(std::uint64_t config, const std::string& fragment) {
    if (!opened_) {
      opened_ = true;
      file_ = create_log(dir_, code_);
    }
    if (!file_) return;
    const std::string line =
        "{\"config\":\"" + hex_digest(config) + "\"," + fragment + "}\n";
    // After a failed write (a full disk) the log ends in a torn line, which
    // readers skip; stop writing rather than append after it.
    if (std::fwrite(line.data(), 1, line.size(), file_.get()) !=
            line.size() ||
        std::fflush(file_.get()) != 0) {
      file_.reset();
    }
  }

 private:
  std::string dir_;
  std::string code_;
  File file_;
  bool opened_ = false;
};

/// The `axes` object of one cell's row: each axis id with its value.
std::string axes_json(const SweepSpec& spec, std::size_t cell) {
  const std::vector<std::size_t> idx = spec.cell_indices(cell);
  std::ostringstream axes;
  axes << "{";
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    if (a != 0) axes << ",";
    axes << "\"" << json_escape(spec.axes[a].id()) << "\":\""
         << json_escape(spec.axes[a].values[idx[a]]) << "\"";
  }
  axes << "}";
  return axes.str();
}

/// One distinct config's fragment, from the cache or from a simulation.
struct ConfigResult {
  std::string fragment;
  bool cached = false;
  JobTiming timing;  ///< execute_cell only; zero for a cache hit
};

}  // namespace

SweepSummary run_sweep(const IniFile& ini, const SweepOptions& opts) {
  AXIHC_CHECK_MSG(opts.shard_count >= 1, "--sweep-shard count must be >= 1");
  AXIHC_CHECK_MSG(opts.shard_index < opts.shard_count,
                  "--sweep-shard index " << opts.shard_index
                                         << " out of range for "
                                         << opts.shard_count << " shard(s)");
  const SweepSpec spec = parse_sweep_spec(ini);
  const std::string code = code_version();

  if (!opts.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.cache_dir, ec);
    AXIHC_REQUIRE(!ec, "--sweep-cache: cannot create '" << opts.cache_dir
                                                         << "': "
                                                         << ec.message());
  }

  SweepSummary summary;
  summary.name = spec.name;
  summary.cells = spec.cell_count();

  // Serial pre-pass over the owned cells: digest each cell's config and
  // give every distinct digest one job, numbered in order of first
  // appearance. Axes whose values canonicalize to the same config (e.g.
  // `0x10 | 16`, or a swept key the builder ignores) simulate once. No
  // expanded config is kept; a job re-expands its first cell's.
  struct Cell {
    std::size_t cell = 0;
    std::uint64_t config = 0;
    std::string axes_json;
    std::size_t job = 0;
  };
  std::vector<Cell> cells;
  std::vector<std::size_t> first_cell;  // per job: index into `cells`
  std::vector<std::size_t> last_cell;   // per job: index into `cells`
  std::unordered_map<std::uint64_t, std::size_t> job_for_config;
  for (std::size_t cell = opts.shard_index; cell < summary.cells;
       cell += opts.shard_count) {
    const std::uint64_t config =
        config_digest(sweep_cell_config(ini, spec, cell));
    const auto [it, fresh] =
        job_for_config.try_emplace(config, first_cell.size());
    if (fresh) {
      first_cell.push_back(cells.size());
      last_cell.push_back(0);
    }
    last_cell[it->second] = cells.size();
    cells.push_back({cell, config, axes_json(spec, cell), it->second});
  }
  summary.shard_cells = cells.size();
  summary.lines.reserve(cells.size());

  // Cache hits are known before the fan-out: each job either takes its
  // logged fragment or simulates.
  std::vector<std::string> logged =
      opts.cache_dir.empty()
          ? std::vector<std::string>(first_cell.size())
          : read_logs(opts.cache_dir, code, job_for_config);
  std::vector<std::function<ConfigResult()>> jobs;
  jobs.reserve(first_cell.size());
  for (std::size_t job = 0; job < first_cell.size(); ++job) {
    jobs.push_back([&ini, &spec, &logged, job,
                    cell = cells[first_cell[job]].cell] {
      ConfigResult r;
      if (!logged[job].empty()) {
        r.fragment = std::move(logged[job]);
        r.cached = true;
        return r;
      }
      const IniFile cfg = sweep_cell_config(ini, spec, cell);
      r.fragment =
          run_timed_job([&cfg] { return execute_cell(cfg); }, r.timing);
      return r;
    });
  }

  // Jobs finish in any order; rows stream in cell order. Once jobs 0..j are
  // done, every cell up to the first one of job j+1 has its fragment. A
  // fragment is held only until its config's last cell is written. A
  // simulated fragment is appended to this run's log here, so the log is
  // written by one thread at a time, in job order.
  std::vector<std::string> fragments(jobs.size());
  std::size_t emitted = 0;
  LogWriter log(opts.cache_dir, code);
  const auto emit_ready = [&](std::size_t job, ConfigResult& r) {
    fragments[job] = std::move(r.fragment);
    if (!r.cached && !opts.cache_dir.empty()) {
      log.append(cells[first_cell[job]].config, fragments[job]);
    }
    for (; emitted < cells.size() && cells[emitted].job <= job; ++emitted) {
      const Cell& c = cells[emitted];
      // The job's first cell carries its cache flag and timing; later
      // cells with the same config count as cache hits.
      const bool first = first_cell[c.job] == emitted;
      const bool cached = !first || r.cached;
      const JobTiming timing = first ? r.timing : JobTiming{};
      const std::string& fragment = fragments[c.job];
      if (cached) {
        ++summary.cache_hits;
      } else {
        ++summary.executed;
      }
      if (fragment.rfind("\"prove_verdict\":", 0) == 0) {
        ++summary.disproved;
      } else if (fragment.rfind("\"error\":", 0) == 0) {
        ++summary.errors;
      }
      std::ostringstream row;
      row << "{\"cell\":" << c.cell << ",\"sweep\":\""
          << json_escape(spec.name) << "\",\"axes\":" << c.axes_json
          << ",\"config\":\"" << hex_digest(c.config) << "\",\"code\":\""
          << json_escape(code) << "\"," << fragment;
      if (!opts.deterministic) {
        row << ",\"cached\":" << (cached ? "true" : "false")
            << ",\"wall_ms\":" << json_double(timing.wall_ms)
            << ",\"rss_kb\":" << timing.rss_kb;
      }
      row << "}";
      std::string line = row.str();
      if (opts.out != nullptr) {
        *opts.out << line << "\n";
        opts.out->flush();
      }
      summary.lines.push_back(std::move(line));
      if (last_cell[c.job] == emitted) fragments[c.job] = std::string();
    }
  };
  run_parallel_jobs<ConfigResult>(std::move(jobs), emit_ready);
  return summary;
}

std::size_t check_pins(const std::vector<std::string>& lines,
                       const std::string& pins_text, std::ostream& err) {
  // Index produced rows by cell.
  struct Produced {
    std::string config;
    std::string state;
  };
  std::vector<std::pair<std::uint64_t, Produced>> produced;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string source = "row " + std::to_string(i + 1);
    const JsonValue row = parse_json(lines[i], source);
    const JsonValue* cell = row.find("cell");
    const JsonValue* config = row.find("config");
    const JsonValue* state = row.find("state_digest");
    AXIHC_REQUIRE(cell != nullptr && config != nullptr,
                  source << " has no cell or config");
    // Annotation rows (statically disproved cells, build errors) carry no
    // state digest; against a pinned cell that reads as a state mismatch —
    // a cell that used to simulate and now doesn't IS a divergence.
    produced.emplace_back(
        static_cast<std::uint64_t>(cell->number),
        Produced{config->str_or(""),
                 state != nullptr ? state->str_or("") : std::string()});
  }

  std::size_t mismatches = 0;
  std::istringstream in(pins_text);
  std::string line;
  for (std::size_t n = 1; std::getline(in, line); ++n) {
    if (line.empty()) continue;
    const std::string source = "pin line " + std::to_string(n);
    const JsonValue pin = parse_json(line, source);
    const JsonValue* cell = pin.find("cell");
    const JsonValue* config = pin.find("config");
    const JsonValue* state = pin.find("state_digest");
    AXIHC_REQUIRE(cell != nullptr && config != nullptr && state != nullptr,
                  source << " has no cell, config or state_digest");
    const auto id = static_cast<std::uint64_t>(cell->number);
    const Produced* match = nullptr;
    for (const auto& [c, p] : produced) {
      if (c == id) {
        match = &p;
        break;
      }
    }
    if (match == nullptr) continue;  // other shard's cell
    if (match->config != config->str_or("")) {
      ++mismatches;
      err << "cell " << id << ": config digest " << match->config
          << " != pinned " << config->str_or("") << "\n";
    } else if (match->state != state->str_or("")) {
      ++mismatches;
      err << "cell " << id << ": state digest " << match->state
          << " != pinned " << state->str_or("") << "\n";
    }
  }
  return mismatches;
}

}  // namespace axihc
