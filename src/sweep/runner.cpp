#include "sweep/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/check.hpp"
#include "common/json_write.hpp"
#include "config/canonical.hpp"
#include "config/system_builder.hpp"
#include "hyperconnect/hyperconnect.hpp"
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
     << "\",\"static_backlog_bound\":" << proof.static_backlog_bound()
     << ",\"prove_certificate\":\""
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
  // with a certified refutation (deadlock cycle, starved port, ID
  // aliasing) — burn no cycles on it, emit the verdict instead.
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

  // Every cell runs the latency auditor's bound check: its audit_wcrt_*
  // bounds (src/analysis/wcla.hpp) are the sweep's predictability metric.
  // The row reads nothing of the provenance part (hops, causes,
  // histograms, flight records), so it is left out; replaying the cell
  // config with `axihc --latency-audit --flight-out` yields it. Neither the
  // audit nor the eFIFO watermark touches simulated state: a row's
  // state_digest is that of a plain `axihc <cell> --digest` run.
  sys->observe_config().latency_bounds = true;
  // Watermark for the prover soundness cross-check (efifo_max below).
  if (HyperConnect* hc = sys->soc().hyperconnect()) {
    hc->set_track_efifo_peaks(true);
  }
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
  // out-of-order mode, FR-FCFS memory, PS stall interference).
  const double wcla_slack = audit->bound_checked() > 0
                                ? 1.0 - audit->max_latency_ratio()
                                : -1.0;

  const SocConfig& soc_cfg = sys->soc().config();
  const ResourceUsage res =
      soc_cfg.kind == InterconnectKind::kHyperConnect
          ? estimate_hyperconnect(soc_cfg.hc)
          : estimate_smartconnect(soc_cfg.num_ports);

  // Observed per-port eFIFO peak (watermark enabled above): the prover
  // soundness cross-check compares it against
  // static_backlog_bound. -1 = no eFIFO structure (SmartConnect).
  std::int64_t efifo_max = -1;
  if (const HyperConnect* hc = sys->soc().hyperconnect()) {
    efifo_max = 0;
    for (PortIndex p = 0; p < soc_cfg.num_ports; ++p) {
      efifo_max = std::max(
          efifo_max, static_cast<std::int64_t>(hc->efifo_peak(p)));
    }
  }

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
  os << "],\"efifo_max\":" << efifo_max << "," << prove_fields(proof);
  return os.str();
}

/// Cache file for one (config, code) key. The fragment is stored verbatim;
/// a reader that fails any sanity check treats the entry as a miss.
std::string cache_path(const std::string& dir, std::uint64_t config_digest,
                       const std::string& code) {
  return dir + "/" + hex_digest(config_digest).substr(2) + "-" + code +
         ".json";
}

bool cache_load(const std::string& path, std::string* fragment) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *fragment = buf.str();
  // Sanity: a fragment always starts with one of the three shape-defining
  // fields (simulated / statically disproved / build error) and completes a
  // JSON object; anything else (truncated write, foreign file) re-runs the
  // cell rather than splice a malformed row into the output.
  if (fragment->rfind("\"cycles\":", 0) != 0 &&
      fragment->rfind("\"prove_verdict\":", 0) != 0 &&
      fragment->rfind("\"error\":", 0) != 0) {
    return false;
  }
  try {
    (void)parse_json("{" + *fragment + "}", path);
  } catch (const ModelError&) {
    return false;
  }
  return true;
}

void cache_store(const std::string& path, const std::string& fragment) {
  // Write-to-temp + rename so concurrent shards sharing one cache directory
  // never observe a torn entry (rename is atomic within a filesystem).
#if defined(__unix__) || defined(__APPLE__)
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
#else
  const std::string tmp = path + ".tmp";
#endif
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // cache is best-effort; the row is already computed
    out << fragment;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

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

  std::vector<std::function<ConfigResult()>> jobs;
  jobs.reserve(first_cell.size());
  for (const std::size_t first : first_cell) {
    const Cell& c = cells[first];
    jobs.push_back([&ini, &spec, &opts, &code, cell = c.cell,
                    config = c.config] {
      ConfigResult r;
      const std::string path =
          opts.cache_dir.empty() ? std::string()
                                 : cache_path(opts.cache_dir, config, code);
      if (!path.empty() && cache_load(path, &r.fragment)) {
        r.cached = true;
        return r;
      }
      const IniFile cfg = sweep_cell_config(ini, spec, cell);
      r.fragment =
          run_timed_job([&cfg] { return execute_cell(cfg); }, r.timing);
      if (!path.empty()) cache_store(path, r.fragment);
      return r;
    });
  }

  // Jobs finish in any order; rows stream in cell order. Once jobs 0..j are
  // done, every cell up to the first one of job j+1 has its fragment. A
  // fragment is held only until its config's last cell is written.
  std::vector<std::string> fragments(jobs.size());
  std::size_t emitted = 0;
  const auto emit_ready = [&](std::size_t job, ConfigResult& r) {
    fragments[job] = std::move(r.fragment);
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
