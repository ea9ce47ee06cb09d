// The reference side of perfbench (see reference.hpp). This file and
// reference/src compile with the macro axihc=axihc_ref, so the frozen
// library links beside the one under test. The set-up pass is the one
// perfbench.cpp times (setup_pass.hpp); each repetition mirrors
// perfbench.cpp's untraced one for the same workload.
#include "reference.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "campaign/campaign.hpp"
#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "setup_pass.hpp"
#include "sweep/runner.hpp"

namespace axihc {
// The sweep cache keys rows by this digest; the reference never shares a
// cache with the build under test, so a constant serves.
const char* code_version_baked() { return "perfbench-reference"; }
}  // namespace axihc

namespace perfbench_ref {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Σ "cycles" over sweep rows; rows of unsimulated cells have none.
double row_cycles(const std::vector<std::string>& lines) {
  double total = 0.0;
  for (const std::string& line : lines) {
    const std::size_t at = line.find("\"cycles\":");
    if (at != std::string::npos) {
      total += std::strtod(line.c_str() + at + std::strlen("\"cycles\":"),
                           nullptr);
    }
  }
  return total;
}

}  // namespace

double setup(const std::string& workload, const std::string& text) {
  const auto t0 = Clock::now();
  setup_pass(workload, text);
  return since(t0);
}

Rep rep(const std::string& workload, const std::string& text,
        const std::string& scratch, long index) {
  Rep r;
  const auto t0 = Clock::now();
  if (workload == "fig5_hc90") {
    axihc::ConfiguredSystem sys(axihc::IniFile::parse(text));
    sys.run();
    (void)sys.report();
    (void)sys.soc().sim().state_digest();
    r.cycles = static_cast<double>(sys.soc().sim().now());
    r.cells = 1.0;
  } else if (workload == "pareto1k_sweep") {
    axihc::SweepOptions so;
    so.cache_dir = scratch + "/ref_cache";
    so.shard_index = static_cast<std::size_t>(index % kSweepShards);
    so.shard_count = kSweepShards;
    const axihc::SweepSummary cold =
        axihc::run_sweep(axihc::IniFile::parse(text), so);
    r.wall_s = since(t0);
    std::filesystem::remove_all(so.cache_dir);
    r.cycles = row_cycles(cold.lines);
    r.cells = static_cast<double>(cold.lines.size());
    return r;
  } else if (workload == "campaign_faults") {
    const axihc::IniFile ini = axihc::IniFile::parse(text);
    const axihc::CampaignOutput o = axihc::run_campaign(ini);
    r.wall_s = since(t0);
    r.cells = static_cast<double>(o.lines.size());  // the baseline + runs
    r.cycles = r.cells * static_cast<double>(
                             axihc::parse_campaign_spec(ini).cycles);
    return r;
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  r.wall_s = since(t0);
  return r;
}

}  // namespace perfbench_ref
