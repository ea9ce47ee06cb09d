#include "campaign/campaign.hpp"

#include <cstdio>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/json_write.hpp"
#include "config/keys.hpp"
#include "config/system_builder.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/parallel_jobs.hpp"

namespace axihc {

namespace {

/// Sentinel activation cycle: active_at(now) is false for every reachable
/// simulation cycle, so the spec pins an injector onto the port without
/// ever perturbing traffic.
constexpr Cycle kNeverActive = std::numeric_limits<Cycle>::max();

/// splitmix64 — the campaign's only randomness primitive. Fully specified
/// arithmetic (no std:: distributions, whose value mappings differ between
/// standard libraries), so campaigns are bit-reproducible everywhere.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform draw in [lo, hi] (inclusive). The modulo bias is irrelevant for
/// fault sampling and keeps the mapping trivially portable.
std::uint64_t draw(std::uint64_t& state, std::uint64_t lo, std::uint64_t hi) {
  AXIHC_CHECK(hi >= lo);
  return lo + splitmix64(state) % (hi - lo + 1);
}

std::vector<FaultKind> all_injector_kinds() {
  return {FaultKind::kStallAr, FaultKind::kStallAw,  FaultKind::kStallW,
          FaultKind::kStallR,  FaultKind::kStallB,   FaultKind::kDropW,
          FaultKind::kDelayW,  FaultKind::kTruncateWrite,
          FaultKind::kCorruptLen};
}

/// Kind-specific parameter range (see FaultSpec::param).
std::uint64_t draw_param(std::uint64_t& state, FaultKind kind) {
  switch (kind) {
    case FaultKind::kDelayW:
      return draw(state, 1, 16);  // extra cycles per W beat
    case FaultKind::kTruncateWrite:
      return draw(state, 1, 4);  // beats cut from the burst
    case FaultKind::kCorruptLen:
      return draw(state, 1, 32);  // corrupted burst length
    default:
      return 0;
  }
}

void append_sentinels(const CampaignSpec& spec, FaultScenario& scenario) {
  for (const PortIndex p : spec.ports) {
    FaultSpec f;
    f.kind = FaultKind::kStallW;
    f.port = p;
    f.start = kNeverActive;
    f.duration = 1;
    f.param = 0;
    f.probability = 0.0;
    scenario.faults.push_back(f);
  }
}

[[nodiscard]] bool is_sentinel(const FaultSpec& f) {
  return f.start == kNeverActive;
}

/// One run's contribution to the JSON-lines output and the exit verdict.
struct RunRow {
  std::string line;
  bool converged = true;
  std::uint64_t conservation_violations = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t escalations = 0;
  std::uint64_t bound_violations = 0;
};

std::string fault_list_json(const FaultScenario& scenario) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const FaultSpec& f : scenario.faults) {
    if (is_sentinel(f)) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"kind\":\"" << fault_kind_name(f.kind) << "\",\"port\":"
       << f.port << ",\"start\":" << f.start << ",\"duration\":"
       << f.duration << ",\"param\":" << f.param << ",\"probability\":"
       << json_double(f.probability) << "}";
  }
  os << "]";
  return os.str();
}

RunRow execute_run(const IniFile& ini, const CampaignSpec& spec,
                   std::uint64_t run_index,
                   const std::vector<std::uint64_t>& baseline_bytes) {
  const FaultScenario scenario = campaign_scenario(spec, run_index);
  ConfiguredSystem sys(ini, scenario);
  // Every run checks the WCLA bounds: fault recovery is exactly when the
  // bound-exclusion logic earns its keep, and the audited/violation
  // counters join the survivability row. The row reads nothing of the
  // provenance part, so it is left out; `axihc --latency-audit --flight-out`
  // on the run's --campaign-replay config yields it. The auditor never
  // touches simulated state: a row's digest is that of a plain run of its
  // replay config.
  sys.observe_config().latency_bounds = true;
  sys.run(spec.cycles);

  const RecoveryManager* rec = sys.recovery();
  AXIHC_CHECK(rec != nullptr);
  const LatencyAudit* audit = sys.latency_audit();
  AXIHC_CHECK(audit != nullptr);
  const std::uint32_t num_ports = sys.soc().config().num_ports;

  RunRow row;
  row.converged = rec->all_converged();
  row.conservation_violations = rec->conservation_violations();
  row.recoveries = rec->recoveries();
  row.escalations = rec->escalations();
  row.bound_violations = audit->bound_violations();

  std::ostringstream os;
  os << "{\"run\":" << run_index << ",\"seed\":" << scenario.seed
     << ",\"cycles\":" << spec.cycles << ",\"faults\":"
     << fault_list_json(scenario) << ",\"recoveries\":" << rec->recoveries()
     << ",\"escalations\":" << rec->escalations() << ",\"demotions\":"
     << rec->demotions() << ",\"mttr_cycles\":"
     << json_double(rec->mean_time_to_recovery()) << ",\"converged\":"
     << (row.converged ? "true" : "false") << ",\"budget_conserved\":"
     << (row.conservation_violations == 0 ? "true" : "false")
     << ",\"audit_txns\":" << audit->transactions() << ",\"bound_checked\":"
     << audit->bound_checked() << ",\"bound_violations\":"
     << audit->bound_violations() << ",\"max_latency_ratio\":"
     << json_double(audit->max_latency_ratio()) << ",\"final_states\":[";
  for (PortIndex p = 0; p < num_ports; ++p) {
    if (p != 0) os << ",";
    os << "\"" << to_string(rec->state(p)) << "\"";
  }
  os << "],\"bw_retained\":[";
  for (std::size_t i = 0; i < sys.ha_count(); ++i) {
    if (i != 0) os << ",";
    const MasterStats& s = sys.ha(i).stats();
    const std::uint64_t bytes = s.bytes_read + s.bytes_written;
    const std::uint64_t base =
        i < baseline_bytes.size() ? baseline_bytes[i] : 0;
    os << json_double(base == 0 ? 1.0
                                : static_cast<double>(bytes) /
                                      static_cast<double>(base));
  }
  os << "],\"digest\":\"" << hex_digest(sys.soc().sim().state_digest())
     << "\"}";
  row.line = os.str();
  return row;
}

}  // namespace

CampaignSpec parse_campaign_spec(const IniFile& ini) {
  check_config(ini);
  const IniSection* camp = ini.section("campaign");
  AXIHC_REQUIRE(camp != nullptr,
                "a campaign file needs a [campaign] section");
  const IniSection* system = ini.section("system");
  AXIHC_REQUIRE(system != nullptr, "config needs a [system] section");
  AXIHC_REQUIRE(ini.section("recovery") != nullptr,
                "campaigns measure survivability through the recovery "
                "FSM — add a [recovery] section");
  AXIHC_REQUIRE(ini.sections_with_prefix("fault").empty(),
                "the campaign owns the fault description — remove the "
                "[faultN] sections from the base config");

  CampaignSpec spec;
  spec.runs = camp->get_u64("runs");
  spec.seed = camp->get_u64("seed");
  spec.cycles = camp->get_u64("cycles");
  if (spec.cycles == 0) spec.cycles = system->get_u64("cycles");

  spec.min_faults = camp->get_u32("min_faults");
  spec.max_faults = camp->get_u32("max_faults");
  AXIHC_REQUIRE(spec.max_faults >= spec.min_faults,
                "[campaign] max_faults < min_faults");

  std::istringstream kinds(camp->get_string("kinds"));
  for (std::string word; kinds >> word;) {
    const auto kind = fault_kind_from_string(word);
    AXIHC_REQUIRE(kind.has_value(),
                  "[campaign] unknown fault kind '" << word << "'");
    spec.kinds.push_back(*kind);
  }
  if (spec.kinds.empty()) spec.kinds = all_injector_kinds();

  const std::uint64_t num_ports = system->get_u32("ports");
  spec.ports = camp->get_u32_list("ports");
  if (spec.ports.empty()) {
    // Default: every port with an HA behind it (faults on empty ports
    // would never materialize — no injector is built there).
    const std::size_t ha_count = ini.sections_with_prefix("ha").size();
    for (PortIndex p = 0; p < ha_count; ++p) spec.ports.push_back(p);
  }
  AXIHC_REQUIRE(!spec.ports.empty(), "[campaign] no candidate ports");
  for (const PortIndex p : spec.ports) {
    AXIHC_REQUIRE(p < num_ports,
                  "[campaign] port " << p << " out of range");
  }

  spec.start_min = camp->get_u64("start_min", spec.cycles / 10);
  spec.start_max = camp->get_u64("start_max", spec.cycles / 2);
  AXIHC_REQUIRE(spec.start_max >= spec.start_min,
                "[campaign] start_max < start_min");
  spec.duration_min = camp->get_u64("duration_min");
  spec.duration_max = camp->get_u64("duration_max");
  AXIHC_REQUIRE(spec.duration_max >= spec.duration_min,
                "[campaign] duration_max < duration_min");

  spec.probability = camp->get_double("probability");
  AXIHC_REQUIRE(spec.probability > 0.0 && spec.probability <= 1.0,
                "[campaign] probability must be in (0, 1]");
  return spec;
}

FaultScenario campaign_scenario(const CampaignSpec& spec,
                                std::uint64_t run_index) {
  // Per-run seed: one splitmix64 step over a golden-ratio-spread input, so
  // neighbouring run indices get uncorrelated streams.
  std::uint64_t derive = spec.seed ^ (0x9e3779b97f4a7c15ULL * (run_index + 1));
  FaultScenario scenario;
  scenario.seed = splitmix64(derive);

  std::uint64_t state = scenario.seed;
  const std::uint64_t n = draw(state, spec.min_faults, spec.max_faults);
  for (std::uint64_t i = 0; i < n; ++i) {
    FaultSpec f;
    f.kind = spec.kinds[draw(state, 0, spec.kinds.size() - 1)];
    f.port = spec.ports[draw(state, 0, spec.ports.size() - 1)];
    f.start = draw(state, spec.start_min, spec.start_max);
    f.duration = draw(state, spec.duration_min, spec.duration_max);
    f.param = draw_param(state, f.kind);
    f.probability = spec.probability;
    scenario.faults.push_back(f);
  }
  append_sentinels(spec, scenario);
  return scenario;
}

CampaignOutput run_campaign(const IniFile& ini) {
  const CampaignSpec spec = parse_campaign_spec(ini);

  // Fault-free baseline under the identical component graph (sentinel
  // injectors on every candidate port): anchors bandwidth-retained and
  // pins the digest composition every run shares.
  FaultScenario baseline_scenario;
  baseline_scenario.seed = spec.seed;
  append_sentinels(spec, baseline_scenario);
  // Unaudited: the baseline line reports only its digest and bytes.
  ConfiguredSystem baseline(ini, baseline_scenario);
  baseline.run(spec.cycles);
  std::vector<std::uint64_t> baseline_bytes;
  for (std::size_t i = 0; i < baseline.ha_count(); ++i) {
    const MasterStats& s = baseline.ha(i).stats();
    baseline_bytes.push_back(s.bytes_read + s.bytes_written);
  }

  CampaignOutput out;
  {
    std::ostringstream os;
    os << "{\"campaign\":{\"runs\":" << spec.runs << ",\"seed\":"
       << spec.seed << ",\"cycles\":" << spec.cycles << ",\"min_faults\":"
       << spec.min_faults << ",\"max_faults\":" << spec.max_faults
       << ",\"kinds\":[";
    for (std::size_t i = 0; i < spec.kinds.size(); ++i) {
      if (i != 0) os << ",";
      os << "\"" << fault_kind_name(spec.kinds[i]) << "\"";
    }
    os << "],\"ports\":[";
    for (std::size_t i = 0; i < spec.ports.size(); ++i) {
      if (i != 0) os << ",";
      os << spec.ports[i];
    }
    os << "],\"probability\":" << json_double(spec.probability)
       << "},\"baseline\":{\"digest\":\""
       << hex_digest(baseline.soc().sim().state_digest())
       << "\",\"bytes\":[";
    for (std::size_t i = 0; i < baseline_bytes.size(); ++i) {
      if (i != 0) os << ",";
      os << baseline_bytes[i];
    }
    os << "]}}";
    out.lines.push_back(os.str());
  }

  std::vector<std::function<RunRow()>> jobs;
  jobs.reserve(spec.runs);
  for (std::uint64_t r = 0; r < spec.runs; ++r) {
    jobs.push_back([&ini, &spec, &baseline_bytes, r] {
      return execute_run(ini, spec, r, baseline_bytes);
    });
  }
  std::vector<RunRow> rows = run_parallel_jobs<RunRow>(std::move(jobs));

  for (RunRow& row : rows) {
    if (!row.converged) ++out.non_converged;
    out.conservation_violations += row.conservation_violations;
    out.total_recoveries += row.recoveries;
    out.total_escalations += row.escalations;
    out.total_bound_violations += row.bound_violations;
    out.lines.push_back(std::move(row.line));
  }
  return out;
}

std::string campaign_replay_ini(const IniFile& ini,
                                std::uint64_t run_index) {
  const CampaignSpec spec = parse_campaign_spec(ini);
  AXIHC_REQUIRE(run_index < spec.runs,
                "--campaign-replay " << run_index
                                     << " is out of range: the campaign has "
                                     << spec.runs << " runs");
  const FaultScenario scenario = campaign_scenario(spec, run_index);

  std::ostringstream os;
  os << "; standalone replay of campaign run " << run_index
     << " (campaign seed " << spec.seed << ")\n";
  for (const IniSection& s : ini.sections()) {
    if (s.name() == "campaign") continue;
    os << "[" << s.name() << "]\n";
    for (const auto& [key, value] : s.entries()) {
      // The campaign overrides the horizon and owns the injector seed.
      if (s.name() == "system" && (key == "fault_seed" || key == "cycles")) {
        continue;
      }
      os << key << " = " << value << "\n";
    }
    if (s.name() == "system") {
      os << "cycles = " << spec.cycles << "\n";
      os << "fault_seed = " << scenario.seed << "\n";
    }
    os << "\n";
  }
  for (std::size_t i = 0; i < scenario.faults.size(); ++i) {
    const FaultSpec& f = scenario.faults[i];
    os << "[fault" << i << "]\n";
    os << "kind = " << fault_kind_name(f.kind) << "\n";
    os << "port = " << f.port << "\n";
    os << "start = " << f.start << "\n";
    os << "duration = " << f.duration << "\n";
    os << "param = " << f.param << "\n";
    char prob[64];
    std::snprintf(prob, sizeof prob, "%.17g", f.probability);
    os << "probability = " << prob << "\n\n";
  }
  return os.str();
}

}  // namespace axihc
