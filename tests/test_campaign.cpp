// Fault-campaign runner tests: spec parsing/validation, deterministic
// scenario generation, byte-identical repeated runs, and single-run replay
// reproducing the campaign row's state digest.
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/check.hpp"
#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

// Small but real: two contending HAs, full recovery stack, four runs with
// fault windows long enough (> prot_timeout) to latch and recover from.
constexpr char kSpec[] = R"(
[system]
interconnect = hyperconnect
platform = zcu102
ports = 2
cycles = 20000

[hyperconnect]
nominal_burst = 16
max_outstanding = 4
reservation_period = 2000
budgets = 16 8
prot_timeout = 1500

[ha0]
type = dma
mode = readwrite
bytes_per_job = 65536
burst = 16

[ha1]
type = traffic
direction = mixed
burst = 16

[recovery]
poll_period = 500
backoff_base = 500
backoff_max = 4000
probation_window = 1500
max_attempts = 4
drain_timeout = 2000

[campaign]
runs = 4
seed = 11
min_faults = 1
max_faults = 2
start_min = 2000
start_max = 6000
duration_min = 2000
duration_max = 5000
)";

TEST(CampaignSpecTest, ParsesWithResolvedDefaults) {
  const CampaignSpec spec = parse_campaign_spec(IniFile::parse(kSpec));
  EXPECT_EQ(spec.runs, 4u);
  EXPECT_EQ(spec.seed, 11u);
  EXPECT_EQ(spec.cycles, 20000u);      // resolved from [system]
  EXPECT_EQ(spec.kinds.size(), 9u);    // default: all injector kinds
  ASSERT_EQ(spec.ports.size(), 2u);    // default: every [haN] port
  EXPECT_EQ(spec.min_faults, 1u);
  EXPECT_EQ(spec.max_faults, 2u);
}

TEST(CampaignSpecTest, RejectsMissingCampaignSection) {
  std::string no_campaign(kSpec);
  no_campaign.erase(no_campaign.find("[campaign]"));
  EXPECT_THROW(parse_campaign_spec(IniFile::parse(no_campaign)), ModelError);
}

TEST(CampaignSpecTest, RejectsStrayFaultSections) {
  std::string with_fault(kSpec);
  with_fault +=
      "\n[fault0]\nkind = stall_w\nport = 0\nstart = 100\nduration = 10\n";
  EXPECT_THROW(parse_campaign_spec(IniFile::parse(with_fault)), ModelError);
}

TEST(CampaignScenarioTest, PureFunctionOfSpecAndIndex) {
  const CampaignSpec spec = parse_campaign_spec(IniFile::parse(kSpec));
  for (std::uint64_t r = 0; r < spec.runs; ++r) {
    const FaultScenario a = campaign_scenario(spec, r);
    const FaultScenario b = campaign_scenario(spec, r);
    EXPECT_EQ(a.seed, b.seed);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    // Generated faults inside the configured ranges, then one never-active
    // sentinel per candidate port pinning the injector topology.
    ASSERT_GE(a.faults.size(), spec.ports.size() + spec.min_faults);
    const std::size_t generated = a.faults.size() - spec.ports.size();
    EXPECT_LE(generated, spec.max_faults);
    for (std::size_t i = 0; i < generated; ++i) {
      const FaultSpec& f = a.faults[i];
      EXPECT_GE(f.start, spec.start_min);
      EXPECT_LE(f.start, spec.start_max);
      EXPECT_GE(f.duration, spec.duration_min);
      EXPECT_LE(f.duration, spec.duration_max);
      EXPECT_EQ(f.kind, b.faults[i].kind);
      EXPECT_EQ(f.start, b.faults[i].start);
    }
    for (std::size_t i = generated; i < a.faults.size(); ++i) {
      EXPECT_FALSE(a.faults[i].active_at(spec.cycles));  // sentinel
    }
  }
  // Different runs draw different scenarios (seeds decorrelate).
  EXPECT_NE(campaign_scenario(spec, 0).seed, campaign_scenario(spec, 1).seed);
}

TEST(CampaignRunTest, RepeatedRunsAreByteIdentical) {
  const IniFile ini = IniFile::parse(kSpec);
  const CampaignOutput a = run_campaign(ini);
  const CampaignOutput b = run_campaign(ini);
  ASSERT_EQ(a.lines.size(), 5u);  // header + 4 runs
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.non_converged, b.non_converged);
  EXPECT_EQ(a.total_recoveries, b.total_recoveries);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.conservation_violations, 0u);
}

TEST(CampaignRunTest, DifferentSeedDifferentScenarios) {
  std::string reseeded(kSpec);
  const std::size_t pos = reseeded.find("seed = 11");
  ASSERT_NE(pos, std::string::npos);
  reseeded.replace(pos, 9, "seed = 12");
  const CampaignOutput a = run_campaign(IniFile::parse(kSpec));
  const CampaignOutput b = run_campaign(IniFile::parse(reseeded));
  EXPECT_NE(a.lines, b.lines);
}

TEST(CampaignRunTest, ReplayReproducesTheRowDigest) {
  const IniFile ini = IniFile::parse(kSpec);
  const CampaignOutput out = run_campaign(ini);
  ASSERT_EQ(out.lines.size(), 5u);

  for (std::uint64_t r = 0; r < 4; ++r) {
    // The digest the campaign recorded for this run...
    const std::string& row = out.lines[r + 1];
    const std::string key = "\"digest\":\"";
    const std::size_t at = row.find(key);
    ASSERT_NE(at, std::string::npos) << row;
    const std::string want =
        row.substr(at + key.size(), row.find('"', at + key.size()) -
                                        (at + key.size()));

    // ...must fall out of a plain (unaudited) run of the reconstructed
    // config, with the kernel fast-forward on and with naive stepping.
    for (const bool ff : {true, false}) {
      ConfiguredSystem replay(IniFile::parse(campaign_replay_ini(ini, r)));
      replay.soc().sim().set_fast_forward(ff);
      replay.run();
      char got[32];
      std::snprintf(got, sizeof got, "0x%016llx",
                    static_cast<unsigned long long>(
                        replay.soc().sim().state_digest()));
      EXPECT_EQ(want, std::string(got))
          << "run " << r << (ff ? "" : " without fast-forward");
    }
  }
}

TEST(CampaignRunTest, ReplayOfAMissingRunNamesTheFlag) {
  std::string err;
  try {
    (void)campaign_replay_ini(IniFile::parse(kSpec), 99999);
  } catch (const ModelError& e) {
    err = e.what();
  }
  EXPECT_NE(err.find("--campaign-replay 99999 is out of range: the campaign "
                     "has 4 runs"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("check failed"), std::string::npos) << err;
  EXPECT_EQ(err.find(".cpp:"), std::string::npos) << err;
}

}  // namespace
}  // namespace axihc
