// The set-up pass of each workload, shared by the build under test
// (perfbench.cpp) and the frozen reference (reference.cpp, where the macro
// axihc=axihc_ref renames the namespace), so that both time the same work.
// Internal linkage: the two copies have the same signatures but call
// different libraries.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hpp"
#include "config/canonical.hpp"
#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "sweep/sweep.hpp"

namespace {

/// The fault-free baseline scenario run_campaign builds: the campaign seed
/// plus one never-active sentinel fault per candidate port, so it
/// elaborates the same component graph as every run.
axihc::FaultScenario baseline_scenario(const axihc::CampaignSpec& spec) {
  axihc::FaultScenario s;
  s.seed = spec.seed;
  for (const axihc::PortIndex p : spec.ports) {
    axihc::FaultSpec f;
    f.kind = axihc::FaultKind::kStallW;
    f.port = p;
    f.start = std::numeric_limits<axihc::Cycle>::max();
    f.duration = 1;
    f.probability = 0.0;
    s.faults.push_back(f);
  }
  return s;
}

/// Parses `text` and elaborates every system `workload` simulates, serially,
/// without simulating. fig5: one system. Sweep: per cell the expansion,
/// config digest, build and prove() screen run_sweep does. Campaign: the
/// baseline and every run's scenario.
void setup_pass(const std::string& workload, const std::string& text) {
  const axihc::IniFile ini = axihc::IniFile::parse(text);
  if (workload == "fig5_hc90") {
    const axihc::ConfiguredSystem sys(ini);
  } else if (workload == "pareto1k_sweep") {
    const axihc::SweepSpec spec = axihc::parse_sweep_spec(ini);
    for (std::size_t c = 0; c < spec.cell_count(); ++c) {
      const axihc::IniFile cfg = axihc::sweep_cell_config(ini, spec, c);
      (void)axihc::config_digest(cfg);
      try {
        const axihc::ConfiguredSystem sys(cfg);
        (void)sys.prove();
      } catch (const axihc::ModelError&) {
        // A config that fails to build is an error row in run_sweep;
        // set-up skips it the same way.
      }
    }
  } else if (workload == "campaign_faults") {
    const axihc::CampaignSpec spec = axihc::parse_campaign_spec(ini);
    { const axihc::ConfiguredSystem sys(ini, baseline_scenario(spec)); }
    for (std::uint64_t r = 0; r < spec.runs; ++r) {
      const axihc::ConfiguredSystem sys(ini, axihc::campaign_scenario(spec, r));
    }
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
}

}  // namespace
