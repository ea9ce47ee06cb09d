// axihc — run an interconnect experiment from an INI description.
//
//   axihc <config.ini> [--cycles N] [--trace-out f.json]
//         [--metrics-out f.csv [--sample-every N]] [--no-fast-forward]
//         [--digest] [--latency-audit] [--flight-out f.jsonl]
//   axihc <config.ini> --prove [--prove-json f.json]
//   axihc <spec.ini> --campaign [--campaign-out f.jsonl]
//   axihc <spec.ini> --campaign --campaign-replay N
//   axihc <spec.ini> --sweep [--sweep-out f.jsonl] [--sweep-cache DIR]
//         [--sweep-no-cache] [--sweep-shard i/N] [--sweep-deterministic]
//         [--sweep-check pins.jsonl] [--sweep-report f.md]
//         [--sweep-report-json f.json]
//   axihc <results.jsonl> --sweep-report f.md      # report from saved rows
//   axihc <config.ini> --config-digest | --config-canonical
//   axihc --example            # print a ready-to-edit sample config
//
// --sweep expands the file's [sweep] section (axes over any config key;
// see src/sweep/sweep.hpp) into its cartesian grid and runs every cell as a
// shared-nothing parallel job, streaming one JSON-lines row per cell.
// Results are cached under (config digest, code version) — the default
// directory is <spec>.ini.cache, i.e. the spec path plus ".cache", holding
// one append-only log per writer — so re-running a sweep only simulates
// cells whose config or code actually changed.
// --sweep-shard i/N runs the cells with index % N == i (fan out across
// machines; the sorted union of shard outputs equals the unsharded run).
// --sweep-check compares each produced cell's config + state digest against
// a pinned row file and exits nonzero on any mismatch. --sweep-report /
// --sweep-report-json render Pareto fronts and per-axis sensitivity tables
// from this run's rows — or, without --sweep, from a saved row file.
//
// --config-digest prints the 64-bit digest of the config's canonical form
// (stable across key order, whitespace, comments, numeric base, and
// explicitly-spelled defaults — see src/config/canonical.hpp);
// --config-canonical prints the canonical text itself.
//
// --campaign runs the Monte Carlo fault campaign described by the file's
// [campaign] section (src/campaign): seeded randomized fault mixes against
// the base system's recovery stack, JSON-lines survivability metrics on
// stdout (or --campaign-out). Exits nonzero when any run ends with a
// non-converged recovery FSM or a budget-conservation violation.
// --campaign-replay N prints a standalone config reproducing run N.
//
// --latency-audit enables the per-transaction latency-provenance layer
// (src/obs/latency_audit): after the run it prints the per-port roll-up
// (p50/p99/p99.9/max vs analytic WCLA bound, cause breakdown) and exits
// nonzero when any transaction exceeded its bound. The run also watches
// each HA's link with a passive AXI protocol monitor (src/axi/monitor) and
// prints the violations it saw ("protocol: 0 violations on 2 HA links").
// --flight-out dumps the flight-recorder ring (the last [observe]
// flight_capacity completed transactions) as JSON-lines; it implies
// --latency-audit.
//
// --prove elaborates the system and runs the static predictability
// certifier (src/prove) with ZERO simulated cycles: reservation
// feasibility/starvation-freedom, WCLA boundedness classification, and the
// address map (HA job windows outside the decode map; windows shared
// between HAs are reported as facts). Exits nonzero iff any check is
// disproved (a zero-budget port under an active reservation, or a job
// window outside every decode entry).
// --prove-json writes the machine-readable certificate (plus the
// code-version digest certificates are cached under in sweeps).
// Inconsistent inputs (overlapping decode entries, a probation window
// shorter than the watchdog poll) are rejected when the system is built.
//
// The row, report and dump files (--sweep-out, --campaign-out,
// --prove-json, --trace-out, --metrics-out, --flight-out, --sweep-report,
// --sweep-report-json) go to stdout when the file name is "-". A file that
// cannot be opened or written exits 1 ("axihc: cannot write 'f.json'").
//
// After a plain run, one line on stderr gives the simulated cycles, the wall
// time of the run, the simulation rate and the process peak RSS
// ("host: 60000 cycles, 4.12 ms, 14.56 Mcyc/s, peak RSS 5.3 MB").
//
// An unknown flag, a flag missing its value, or a count that is not a whole
// unsigned number ("1e3", "abc", or 0 for --sample-every) is a usage error:
// exit 2 with the usage text. So is --sample-every without --metrics-out,
// the only output it changes. A rejected input exits 1 with a message that
// names the file ("axihc: bad.ini: ini line 3: expected key = value").
// Every config section and key, with its default, is a row of the table in
// src/config/keys.cpp; see src/config/system_builder.hpp for the sections'
// meaning.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/check.hpp"
#include "config/canonical.hpp"
#include "config/system_builder.hpp"
#include "sim/parallel_jobs.hpp"
#include "sweep/code_version.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace {

constexpr const char* kExample = R"(# axihc experiment: CHaiDNN-class DNN vs greedy DMA with a 90/10 reservation
[system]
interconnect = hyperconnect   ; hyperconnect | smartconnect
platform = zcu102             ; zcu102 | zynq7020
ports = 2
cycles = 2000000

[hyperconnect]
nominal_burst = 16
max_outstanding = 4
reservation_period = 2000
budgets = 64 7                ; ~90% / ~10% of the window capacity

[ha0]
type = dnn                    ; dma | traffic | dnn
network = googlenet           ; googlenet | alexnet
scale = 16                    ; divide the workload for quick runs

[ha1]
type = dma
mode = readwrite
bytes_per_job = 262144
burst = 16

[observe]                     ; optional buffer sizes for the observing flags
trace_capacity = 0            ; --trace-out: max retained events; 0 = unbounded
flight_capacity = 4096        ; --latency-audit: flight-recorder ring size
)";

void usage() {
  std::cerr << "usage: axihc <config.ini> [--cycles N] [--trace-out f.json]\n"
               "             [--metrics-out f.csv [--sample-every N]]\n"
               "             [--no-fast-forward] [--digest]\n"
               "             [--latency-audit] [--flight-out f.jsonl]\n"
               "       axihc <config.ini> --prove [--prove-json f.json]\n"
               "       axihc <spec.ini> --campaign [--campaign-out f.jsonl]\n"
               "       axihc <spec.ini> --campaign --campaign-replay N\n"
               "       axihc <spec.ini> --sweep [--sweep-out f.jsonl]\n"
               "             [--sweep-cache DIR] [--sweep-no-cache]\n"
               "             [--sweep-shard i/N] [--sweep-deterministic]\n"
               "             [--sweep-check pins.jsonl] [--sweep-report f.md]\n"
               "             [--sweep-report-json f.json]\n"
               "       axihc <results.jsonl> --sweep-report f.md\n"
               "       axihc <config.ini> --config-digest\n"
               "       axihc <config.ini> --config-canonical\n"
               "       axihc --example > experiment.ini\n"
               "An output file named - (--sweep-out, --campaign-out,\n"
               "--prove-json, --trace-out, --metrics-out, --flight-out,\n"
               "--sweep-report*) is stdout.\n";
}

/// Streams `what` to `path` through `write`, with "-" meaning stdout.
/// Returns false (and complains) when the file cannot be opened or a write
/// to it fails.
bool write_output(const std::string& path, const char* what,
                  const std::function<void(std::ostream&)>& write) {
  std::ofstream file;
  if (path != "-") file.open(path);
  std::ostream& out = path == "-" ? std::cout : file;
  if (out) {
    write(out);
    out.flush();
  }
  if (!out) {
    std::cerr << "axihc: cannot write '" << path << "'\n";
    return false;
  }
  if (path != "-") {
    std::cerr << "axihc: wrote " << what << " to " << path << "\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  if (std::strcmp(argv[1], "--example") == 0) {
    std::cout << kExample;
    return 0;
  }

  axihc::Cycle override_cycles = 0;
  std::string trace_out;
  std::string metrics_out;
  axihc::Cycle sample_every = 0;  // 0 = the default period
  bool fast_forward = true;
  bool print_digest = false;
  bool prove_mode = false;
  std::string prove_json;
  bool campaign_mode = false;
  std::string campaign_out;
  std::optional<std::uint64_t> campaign_replay;
  bool latency_audit = false;
  std::string flight_out;
  bool sweep_mode = false;
  std::string sweep_out;
  std::string sweep_cache;
  bool sweep_no_cache = false;
  std::size_t sweep_shard_index = 0;
  std::size_t sweep_shard_count = 1;
  bool sweep_deterministic = false;
  std::string sweep_check;
  std::string sweep_report;
  std::string sweep_report_json;
  bool config_digest_mode = false;
  bool config_canonical_mode = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    // Each consumes the flag's value; false when it is missing or malformed.
    const auto take = [&](std::string& out) {
      if (value == nullptr) return false;
      out = value;
      ++i;
      return true;
    };
    const auto take_count = [&](auto& out) {
      std::uint64_t n = 0;
      if (value == nullptr || !axihc::parse_unsigned(value, UINT64_MAX, n)) {
        return false;
      }
      out = n;
      ++i;
      return true;
    };
    bool ok = true;
    if (arg == "--cycles") {
      ok = take_count(override_cycles);
    } else if (arg == "--trace-out") {
      ok = take(trace_out);
    } else if (arg == "--metrics-out") {
      ok = take(metrics_out);
    } else if (arg == "--sample-every") {
      ok = take_count(sample_every) && sample_every != 0;
    } else if (arg == "--no-fast-forward") {
      fast_forward = false;
    } else if (arg == "--digest") {
      print_digest = true;
    } else if (arg == "--prove") {
      prove_mode = true;
    } else if (arg == "--prove-json") {
      prove_mode = true;
      ok = take(prove_json);
    } else if (arg == "--campaign") {
      campaign_mode = true;
    } else if (arg == "--campaign-out") {
      campaign_mode = true;
      ok = take(campaign_out);
    } else if (arg == "--campaign-replay") {
      campaign_mode = true;
      std::uint64_t run = 0;
      ok = take_count(run);
      campaign_replay = run;
    } else if (arg == "--sweep") {
      sweep_mode = true;
    } else if (arg == "--sweep-out") {
      sweep_mode = true;
      ok = take(sweep_out);
    } else if (arg == "--sweep-cache") {
      sweep_mode = true;
      ok = take(sweep_cache);
    } else if (arg == "--sweep-no-cache") {
      sweep_mode = true;
      sweep_no_cache = true;
    } else if (arg == "--sweep-shard") {
      // i/N with i < N.
      sweep_mode = true;
      std::string shard;
      ok = take(shard);
      const std::size_t slash = shard.find('/');
      std::uint64_t idx = 0;
      std::uint64_t count = 0;
      ok = ok && slash != std::string::npos &&
           axihc::parse_unsigned(shard.substr(0, slash), UINT64_MAX, idx) &&
           axihc::parse_unsigned(shard.substr(slash + 1), UINT64_MAX, count) &&
           idx < count;
      sweep_shard_index = static_cast<std::size_t>(idx);
      sweep_shard_count = static_cast<std::size_t>(count);
    } else if (arg == "--sweep-deterministic") {
      sweep_mode = true;
      sweep_deterministic = true;
    } else if (arg == "--sweep-check") {
      sweep_mode = true;
      ok = take(sweep_check);
    } else if (arg == "--sweep-report") {
      ok = take(sweep_report);
    } else if (arg == "--sweep-report-json") {
      ok = take(sweep_report_json);
    } else if (arg == "--config-digest") {
      config_digest_mode = true;
    } else if (arg == "--config-canonical") {
      config_canonical_mode = true;
    } else if (arg == "--latency-audit") {
      latency_audit = true;
    } else if (arg == "--flight-out") {
      latency_audit = true;
      ok = take(flight_out);
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "axihc: unknown flag, or missing or malformed value: '"
                << arg << "'\n";
      usage();
      return 2;
    }
  }
  if (sample_every != 0 && metrics_out.empty()) {
    std::cerr << "axihc: --sample-every needs --metrics-out\n";
    usage();
    return 2;
  }

  std::ifstream file(argv[1]);
  if (!file) {
    std::cerr << "axihc: cannot open '" << argv[1] << "'\n";
    return 1;
  }
  std::ostringstream text;
  text << file.rdbuf();

  // The file a rejection is about, named in its message: the config, row
  // or spec file, or the pin file while --sweep-check reads it.
  std::string input = argv[1];
  // Renders the requested sweep reports from `lines`; false when one of
  // them cannot be written.
  const auto write_sweep_reports = [&](const std::vector<std::string>& lines) {
    return (sweep_report.empty() ||
            write_output(sweep_report, "sweep report",
                         [&](std::ostream& out) {
                           out << axihc::sweep_report_markdown(lines);
                         })) &&
           (sweep_report_json.empty() ||
            write_output(sweep_report_json, "sweep report",
                         [&](std::ostream& out) {
                           out << axihc::sweep_report_json(lines);
                         }));
  };
  try {
    if (config_digest_mode || config_canonical_mode) {
      const axihc::IniFile ini = axihc::IniFile::parse(text.str());
      if (config_canonical_mode) std::cout << axihc::canonical_ini(ini);
      if (config_digest_mode) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%016llx",
                      static_cast<unsigned long long>(
                          axihc::config_digest(ini)));
        std::cout << buf << "\n";
      }
      return 0;
    }

    if ((!sweep_report.empty() || !sweep_report_json.empty()) &&
        !sweep_mode) {
      // Standalone report mode: argv[1] is a saved row file, not a config.
      // Empty lines stay (the report skips them), so a rejected row's
      // number is its line in the file.
      std::vector<std::string> lines;
      std::istringstream rows(text.str());
      for (std::string line; std::getline(rows, line);) lines.push_back(line);
      return write_sweep_reports(lines) ? 0 : 1;
    }

    if (sweep_mode) {
      const axihc::IniFile ini = axihc::IniFile::parse(text.str());
      axihc::SweepOptions opts;
      if (!sweep_no_cache) {
        // Default cache next to the spec file, so re-running the same
        // command line hits it without any extra flags.
        opts.cache_dir = sweep_cache.empty()
                             ? std::string(argv[1]) + ".cache"
                             : sweep_cache;
      }
      opts.shard_index = sweep_shard_index;
      opts.shard_count = sweep_shard_count;
      opts.deterministic = sweep_deterministic;

      // Rows stream out as cells finish.
      axihc::SweepSummary summary;
      if (!write_output(sweep_out.empty() ? "-" : sweep_out, "sweep rows",
                        [&](std::ostream& out) {
                          opts.out = &out;
                          summary = axihc::run_sweep(ini, opts);
                        })) {
        return 1;
      }
      std::cerr << "axihc: sweep '" << summary.name << "': "
                << summary.cells << " cells";
      if (sweep_shard_count > 1) {
        std::cerr << " (" << summary.shard_cells << " in shard "
                  << sweep_shard_index << "/" << sweep_shard_count << ")";
      }
      std::cerr << ", " << summary.executed << " executed, "
                << summary.cache_hits << " cache hits";
      if (summary.disproved != 0) {
        std::cerr << ", " << summary.disproved << " statically disproved";
      }
      if (summary.errors != 0) {
        std::cerr << ", " << summary.errors << " config errors";
      }
      std::cerr << "\n";

      if (!write_sweep_reports(summary.lines)) return 1;

      if (!sweep_check.empty()) {
        std::ifstream pins(sweep_check);
        if (!pins) {
          std::cerr << "axihc: cannot open '" << sweep_check << "'\n";
          return 1;
        }
        std::ostringstream pins_text;
        pins_text << pins.rdbuf();
        input = sweep_check;
        const std::size_t mismatches =
            axihc::check_pins(summary.lines, pins_text.str(), std::cerr);
        if (mismatches != 0) {
          std::cerr << "axihc: " << mismatches
                    << " cell(s) diverged from " << sweep_check << "\n";
          return 1;
        }
        std::cerr << "axihc: all pinned cells match " << sweep_check << "\n";
      }
      return 0;
    }

    if (campaign_mode) {
      const axihc::IniFile ini = axihc::IniFile::parse(text.str());
      if (campaign_replay.has_value()) {
        std::cout << axihc::campaign_replay_ini(ini, *campaign_replay);
        return 0;
      }
      const axihc::CampaignOutput out = axihc::run_campaign(ini);
      if (!write_output(campaign_out.empty() ? "-" : campaign_out,
                        "campaign results", [&](std::ostream& os) {
                          for (const std::string& line : out.lines) {
                            os << line << "\n";
                          }
                        })) {
        return 1;
      }
      std::cerr << "axihc: campaign: " << (out.lines.size() - 1)
                << " runs, " << out.total_recoveries << " recoveries, "
                << out.total_escalations << " escalations, "
                << out.non_converged << " non-converged, "
                << out.conservation_violations
                << " budget-conservation violations, "
                << out.total_bound_violations << " WCLA bound violations\n";
      return out.ok() ? 0 : 1;
    }

    auto system = axihc::build_system(text.str());

    if (prove_mode) {
      const axihc::ProveReport proof = system->prove();
      std::cout << "axihc-prove: " << argv[1] << "\n";
      proof.write_text(std::cout);
      // The certificate itself is code-version-free (pure function of the
      // elaborated system); the wrapper adds the digest sweeps cache
      // certificates under, so an exported file can be matched against
      // cache entries.
      if (!prove_json.empty() &&
          !write_output(prove_json, "prove certificate",
                        [&](std::ostream& out) {
                          out << "{\"code\":\"" << axihc::code_version()
                              << "\",\"certificate\":"
                              << proof.certificate_json() << "}\n";
                        })) {
        return 1;
      }
      return proof.disproved() ? 1 : 0;
    }

    // An output file turns the corresponding half of the observability
    // layer on; --sample-every overrides the period.
    axihc::ObserveConfig& obs = system->observe_config();
    if (!trace_out.empty()) obs.trace = true;
    if (!metrics_out.empty()) obs.metrics = true;
    if (sample_every != 0) obs.sample_every = sample_every;
    if (latency_audit) obs.latency_audit = true;
    // Kernel fast-forward is on by default and bit-exact; --no-fast-forward
    // forces the naive one-tick-per-cycle loop (kernel debugging aid).
    system->soc().sim().set_fast_forward(fast_forward);

    const auto started = std::chrono::steady_clock::now();
    const axihc::Cycle cycles = system->run(override_cycles);
    const double run_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    std::cout << system->report();
    // Host cost of the run, on stderr so stdout stays comparable.
    std::fprintf(stderr,
                 "host: %llu cycles, %.2f ms, %.2f Mcyc/s, peak RSS %.1f MB\n",
                 static_cast<unsigned long long>(cycles), run_ms,
                 run_ms > 0 ? static_cast<double>(cycles) / (run_ms * 1e3)
                            : 0.0,
                 static_cast<double>(axihc::peak_rss_kb()) / 1024.0);
    const axihc::LatencyAudit* audit = system->latency_audit();
    if (audit != nullptr) {
      std::cout << "\n";
      audit->write_rollup(std::cout);
      std::cout << "protocol: " << system->protocol_violations()
                << " violations on " << system->ha_count() << " HA links\n";
    }
    if (!flight_out.empty() && audit != nullptr &&
        !write_output(flight_out, "flight records", [&](std::ostream& out) {
          audit->flight_recorder().write_jsonl(out);
        })) {
      return 1;
    }
    if (print_digest) {
      // Machine-checkable bit-identity: equal configs must print equal
      // digests with and without fast-forward.
      std::cout << "state_digest: " << std::hex
                << system->soc().sim().state_digest() << std::dec << "\n";
    }

    if (!trace_out.empty() &&
        !write_output(trace_out, "trace", [&](std::ostream& out) {
          system->write_trace(out);
        })) {
      return 1;
    }
    if (!metrics_out.empty() &&
        !write_output(metrics_out, "metrics", [&](std::ostream& out) {
          system->write_metrics_csv(out);
        })) {
      return 1;
    }
    if (audit != nullptr && audit->bound_violations() != 0) {
      std::cerr << "axihc: " << audit->bound_violations()
                << " transaction(s) exceeded the analytic WCLA bound\n";
      return 1;
    }
  } catch (const axihc::ModelError& e) {
    std::cerr << "axihc: " << input << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
