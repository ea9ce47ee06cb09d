// Latency-provenance and WCLA bound-audit layer (src/obs/latency_audit):
// log-bucketed histogram geometry, flow-event export, exact cause-bucket
// accounting on clean systems, the tightened-bound auditor self-test, and
// digest bit-identity with the auditor on vs off.
#include "obs/latency_audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "config/system_builder.hpp"
#include "ha/dma_engine.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "sim/digest.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace axihc {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram geometry
// ---------------------------------------------------------------------------

TEST(LogHistogram, ExactRegionIsUnitBuckets) {
  // Below 2^6 every value owns a bucket: index == value, width 1.
  for (Cycle v : {Cycle{0}, Cycle{1}, Cycle{33}, Cycle{62}, Cycle{63}}) {
    const std::size_t idx = LogHistogram::bucket_index(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(LogHistogram::bucket_lower(idx), v);
    EXPECT_EQ(LogHistogram::bucket_upper(idx), v);
  }
}

TEST(LogHistogram, OctaveEdges) {
  // 64 is the first bucketed value; 63 the last exact one — adjacent
  // indices, no gap and no overlap.
  EXPECT_EQ(LogHistogram::bucket_index(63), 63u);
  EXPECT_EQ(LogHistogram::bucket_index(64), 64u);
  EXPECT_EQ(LogHistogram::bucket_lower(64), 64u);
  // First octave [64, 128) in 32 sub-buckets of width 2: 64 and 65
  // share a bucket, 66 starts the next.
  EXPECT_EQ(LogHistogram::bucket_index(65), 64u);
  EXPECT_EQ(LogHistogram::bucket_index(66), 65u);

  // Every bucket's [lower, upper] must contain each value mapped to it,
  // and buckets must tile the line: upper(i) + 1 == lower(i + 1).
  for (Cycle v :
       {Cycle{64}, Cycle{127}, Cycle{128}, Cycle{129}, Cycle{255},
        Cycle{256}, Cycle{1000}, Cycle{65535}, Cycle{65536},
        Cycle{1} << 40, (Cycle{1} << 40) + 12345}) {
    const std::size_t idx = LogHistogram::bucket_index(v);
    EXPECT_LE(LogHistogram::bucket_lower(idx), v) << v;
    EXPECT_GE(LogHistogram::bucket_upper(idx), v) << v;
  }
  for (std::size_t i = 0; i + 1 < LogHistogram::bucket_count(); ++i) {
    EXPECT_EQ(LogHistogram::bucket_upper(i) + 1,
              LogHistogram::bucket_lower(i + 1))
        << "gap/overlap at bucket " << i;
  }
}

TEST(LogHistogram, ExactSummariesAndBoundedPercentileError) {
  LogHistogram h;
  std::uint64_t sum = 0;
  std::vector<Cycle> samples;
  for (Cycle v = 1; v <= 5000; v += 7) {
    h.record(v);
    samples.push_back(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), samples.front());
  EXPECT_EQ(h.max(), samples.back());

  for (double p : {50.0, 90.0, 99.0, 99.9, 100.0}) {
    const auto rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(p / 100.0 *
                                        static_cast<double>(samples.size()))));
    const Cycle exact = samples[rank - 1];
    const Cycle reported = h.percentile(p);
    EXPECT_GE(reported, exact) << "p" << p;  // never under-reports
    EXPECT_LE(static_cast<double>(reported),
              static_cast<double>(exact) * (1.0 + 1.0 / 32.0) + 1.0)
        << "p" << p;  // at most one sub-bucket high
  }
}

TEST(LogHistogram, ExactRegionPercentilesAreExact) {
  LogHistogram h;
  for (Cycle v = 1; v <= 60; ++v) h.record(v);
  EXPECT_EQ(h.percentile(50.0), 30u);
  EXPECT_EQ(h.percentile(100.0), 60u);
}

// ---------------------------------------------------------------------------
// Flow events in the Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTrace, FlowEventsRenderAsArrowPair) {
  EventTrace trace;
  trace.enable(true);
  trace.record_flow_start(10, "hc.port0", "rtxn", 42);
  trace.record_flow_end(60, "mem", "rtxn", 42);
  std::ostringstream os;
  write_chrome_trace(os, trace);
  const std::string json = os.str();
  // Start: ph "s" with the binding id; end: ph "f" with bp:"e" so the
  // arrow anchors to the enclosing slice/instant end.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"txn\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"rtxn\""), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// System-level fixtures
// ---------------------------------------------------------------------------

constexpr const char* kContentionIni = R"(
[system]
interconnect = hyperconnect
platform = zcu102
ports = 2
cycles = 150000

[hyperconnect]
nominal_burst = 16
max_outstanding = 4
reservation_period = 2000
budgets = 64 7

[ha0]
type = dma
mode = readwrite
bytes_per_job = 262144
burst = 16

[ha1]
type = dma
mode = readwrite
bytes_per_job = 262144
burst = 16
)";

std::unique_ptr<ConfiguredSystem> audited_system(const std::string& ini) {
  auto sys = build_system(ini);
  sys->observe_config().latency_audit = true;
  return sys;
}

TEST(LatencyAudit, CauseBucketsSumExactlyToLatency) {
  auto sys = audited_system(kContentionIni);
  sys->run();
  const LatencyAudit* audit = sys->latency_audit();
  ASSERT_NE(audit, nullptr);
  ASSERT_GT(audit->transactions(), 100u);
  const auto records = audit->flight_recorder().snapshot();
  ASSERT_FALSE(records.empty());
  for (const FlightRecord& rec : records) {
    Cycle accounted = 0;
    for (const Cycle c : rec.cause) accounted += c;
    EXPECT_EQ(accounted, rec.latency)
        << "port " << rec.port << (rec.is_write ? " w" : " r") << " id "
        << rec.id;
    // A clean (fault-free) run reaches every hop: nothing may fall into
    // the recovery/unattributed residual bucket.
    EXPECT_EQ(rec.cause[static_cast<std::size_t>(LatencyCause::kRecoveryStall)],
              0u);
    EXPECT_FALSE(rec.error);
    EXPECT_FALSE(rec.fault_overlap);
  }
}

// Three ports on short reservation windows with small budgets, split into
// 4-beat sub-requests under a 2-deep outstanding limit: an active split's
// stall cause keeps flipping between budget_wait, arbitration and
// backpressure.
constexpr const char* kBudgetStarvedIni = R"(
[system]
interconnect = hyperconnect
platform = zcu102
ports = 3
cycles = 60000

[hyperconnect]
nominal_burst = 4
max_outstanding = 2
reservation_period = 400
budgets = 10 6 3

[ha0]
type = traffic
direction = read
burst = 16

[ha1]
type = traffic
direction = mixed
burst = 16

[ha2]
type = dma
mode = readwrite
bytes_per_job = 65536
burst = 32
)";

// FNV-1a over (port, dir, id, cause buckets) of every flight record: where
// the auditor put each transaction's cycles, independent of timestamps.
std::uint64_t cause_digest(const LatencyAudit& audit) {
  StateDigest d;
  for (const FlightRecord& rec : audit.flight_recorder().snapshot()) {
    d.mix(rec.port);
    d.mix(rec.is_write ? 1u : 0u);
    d.mix(rec.id);
    for (const Cycle c : rec.cause) d.mix(c);
  }
  return d.value();
}

std::array<Cycle, kLatencyCauseCount> cause_totals(const LatencyAudit& audit) {
  std::array<Cycle, kLatencyCauseCount> total{};
  for (const FlightRecord& rec : audit.flight_recorder().snapshot()) {
    for (std::size_t c = 0; c < kLatencyCauseCount; ++c) {
      total[c] += rec.cause[c];
    }
  }
  return total;
}

TEST(LatencyAudit, CauseAttributionIsPinned) {
  // The stall classifier is change-driven: the HyperConnect reports a cause
  // only when it differs from the last one reported for that split. These
  // digests equal those of a classifier that reports every cycle; any span
  // charged to the wrong cause moves them.
  const struct {
    const char* name;
    const char* ini;
    std::uint64_t digest;
  } cases[] = {
      {"contention", kContentionIni, 0xb99acbd3b164a050u},
      {"budget_starved", kBudgetStarvedIni, 0x602d187a9ca3e9beu},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto sys = audited_system(c.ini);
    sys->run();
    const LatencyAudit* audit = sys->latency_audit();
    ASSERT_NE(audit, nullptr);
    ASSERT_GT(audit->transactions(), 100u);
    EXPECT_EQ(cause_digest(*audit), c.digest);
    if (c.ini != kBudgetStarvedIni) continue;
    // The starved fixture must charge cycles to each of these causes.
    const auto total = cause_totals(*audit);
    for (const LatencyCause cause :
         {LatencyCause::kBudgetWait, LatencyCause::kArbitration,
          LatencyCause::kBackpressure}) {
      EXPECT_GT(total[static_cast<std::size_t>(cause)], 0u)
          << latency_cause_name(cause);
    }
  }
}

TEST(LatencyAudit, NoViolationsOnContentionScenario) {
  auto sys = audited_system(kContentionIni);
  sys->run();
  const LatencyAudit* audit = sys->latency_audit();
  ASSERT_NE(audit, nullptr);
  EXPECT_TRUE(audit->bounds_enabled());
  EXPECT_GT(audit->bound_checked(), 0u);
  EXPECT_EQ(audit->bound_violations(), 0u);
  EXPECT_EQ(audit->excluded(), 0u);
  ASSERT_GT(audit->max_latency_ratio(), 0.0);
  EXPECT_LE(audit->max_latency_ratio(), 1.0);
}

TEST(LatencyAudit, RollupReportsEveryActivePortDir) {
  auto sys = audited_system(kContentionIni);
  sys->run();
  std::ostringstream os;
  sys->latency_audit()->write_rollup(os);
  const std::string table = os.str();
  EXPECT_NE(table.find("p99.9"), std::string::npos);
  EXPECT_NE(table.find("causes:"), std::string::npos);
  EXPECT_NE(table.find("violations=0"), std::string::npos) << table;
}

std::string repo_text(const std::string& rel) {
  std::ifstream in(std::string(AXIHC_REPO_ROOT) + "/" + rel);
  EXPECT_TRUE(in.good()) << rel;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The roll-up without its summary line (which counts flight drops).
std::string rollup_table(const LatencyAudit& audit) {
  std::ostringstream os;
  audit.write_rollup(os);
  std::string table = os.str();
  table.erase(table.rfind("txns="));
  return table;
}

TEST(LatencyAudit, RollupBoundDoesNotDependOnTheFlightRing) {
  // The roll-up's bound/slack columns come from the bound check, not from
  // the records a one-entry flight ring happens to retain.
  const std::string quickstart = repo_text("examples/configs/quickstart.ini");
  std::string tables[2];
  for (int i = 0; i < 2; ++i) {
    auto sys = audited_system(quickstart +
                              (i == 0 ? "" : "\n[observe]\nflight_capacity = 1\n"));
    sys->run(200000);
    ASSERT_GT(sys->latency_audit()->bound_checked(), 0u);
    tables[i] = rollup_table(*sys->latency_audit());
  }
  EXPECT_EQ(tables[1], tables[0]);
  // Every port/dir row reports a bound (its line has no '-' column).
  std::istringstream rows(tables[1]);
  std::string line;
  int port_rows = 0;
  while (std::getline(rows, line)) {
    if (line.empty() || line[0] < '0' || line[0] > '9') continue;
    ++port_rows;
    EXPECT_EQ(line.find(" -"), std::string::npos) << line;
  }
  EXPECT_EQ(port_rows, 4);
}

// ---------------------------------------------------------------------------
// The bound check alone (sweep and campaign rows) vs the full audit
// ---------------------------------------------------------------------------

/// Everything the bound check reports, which must not depend on whether
/// provenance is recorded alongside it.
struct BoundSummary {
  std::uint64_t txns = 0;
  std::uint64_t checked = 0;
  std::uint64_t violations = 0;
  std::uint64_t excluded = 0;
  double max_ratio = 0.0;
  std::vector<Cycle> max_audited;  // [port * 2 + is_write]
  std::uint64_t digest = 0;
  bool operator==(const BoundSummary&) const = default;
};

BoundSummary bound_summary(ConfiguredSystem& sys, bool provenance,
                           Cycle cycles) {
  if (provenance) {
    sys.observe_config().latency_audit = true;
  } else {
    sys.observe_config().latency_bounds = true;
  }
  sys.run(cycles);
  const LatencyAudit* audit = sys.latency_audit();
  EXPECT_NE(audit, nullptr);
  EXPECT_EQ(audit->provenance(), provenance);
  BoundSummary out{audit->transactions(), audit->bound_checked(),
                   audit->bound_violations(), audit->excluded(),
                   audit->max_latency_ratio(), {},
                   sys.soc().sim().state_digest()};
  for (PortIndex p = 0; p < sys.soc().config().num_ports; ++p) {
    for (const bool dir : {false, true}) {
      out.max_audited.push_back(audit->max_audited(p, dir));
    }
  }
  return out;
}

void expect_same_bounds(const std::function<std::unique_ptr<ConfiguredSystem>()>&
                            build,
                        Cycle cycles) {
  auto bounds_only = build();
  auto full = build();
  const BoundSummary b = bound_summary(*bounds_only, false, cycles);
  const BoundSummary f = bound_summary(*full, true, cycles);
  EXPECT_GT(f.txns, 0u);
  EXPECT_EQ(b.txns, f.txns);
  EXPECT_EQ(b.checked, f.checked);
  EXPECT_EQ(b.violations, f.violations);
  EXPECT_EQ(b.excluded, f.excluded);
  EXPECT_EQ(b.max_ratio, f.max_ratio);
  EXPECT_EQ(b.max_audited, f.max_audited);
  EXPECT_EQ(b.digest, f.digest);
  // Provenance is left out of a bounds-only run entirely.
  EXPECT_EQ(bounds_only->latency_audit()->flight_recorder().size(), 0u);
  EXPECT_EQ(bounds_only->latency_audit()->histogram(0, false).count(), 0u);
}

TEST(LatencyAudit, BoundsOnlyAgreesWithFullAuditOnEveryShippedConfig) {
  std::vector<std::string> configs = {"tests/config_fixtures/stall_faults.ini"};
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(AXIHC_REPO_ROOT) + "/examples/configs")) {
    if (entry.path().extension() == ".ini") {
      configs.push_back("examples/configs/" +
                        entry.path().filename().string());
    }
  }
  std::sort(configs.begin(), configs.end());
  ASSERT_GE(configs.size(), 8u);
  for (const std::string& rel : configs) {
    SCOPED_TRACE(rel);
    const std::string text = repo_text(rel);
    expect_same_bounds([&text] { return build_system(text); }, 0);
  }
}

TEST(LatencyAudit, BoundsOnlyAgreesWithFullAuditOnFaultedCampaignRuns) {
  // Run 0 corrupts AxLEN upstream of the port (the bound must use the beat
  // count the HyperConnect accepted); run 4 drops W beats and stalls B.
  // Both fault ports, so disturbance marking decides what is excluded.
  const IniFile ini =
      IniFile::parse(repo_text("examples/configs/campaign_smoke.ini"));
  const CampaignSpec spec = parse_campaign_spec(ini);
  for (const std::uint64_t run : {0u, 4u}) {
    SCOPED_TRACE(run);
    const FaultScenario scenario = campaign_scenario(spec, run);
    expect_same_bounds(
        [&] { return std::make_unique<ConfiguredSystem>(ini, scenario); },
        spec.cycles);
  }
}

/// Identical 2-port contention system; optionally fully audited.
struct ManualSystem {
  Simulator sim;
  BackingStore store;
  HyperConnect hc;
  MemoryController mem;
  DmaEngine dma0;
  DmaEngine dma1;
  LatencyAudit audit;

  static DmaConfig dma_cfg() {
    DmaConfig d;
    d.mode = DmaMode::kReadWrite;
    d.bytes_per_job = 1u << 18;
    return d;
  }

  explicit ManualSystem(bool audited)
      : hc("hc", HyperConnectConfig{}),
        mem("ddr", hc.master_link(), store, {}),
        dma0("dma0", hc.port_link(0), dma_cfg()),
        dma1("dma1", hc.port_link(1), dma_cfg()),
        audit(2, 256) {
    hc.register_with(sim);
    sim.add(mem);
    sim.add(dma0);
    sim.add(dma1);
    if (audited) {
      audit.set_enabled(true);
      hc.set_latency_audit(&audit);
      mem.set_latency_audit(&audit);
      dma0.set_latency_audit(&audit, 0);
      dma1.set_latency_audit(&audit, 1);
    }
    sim.reset();
  }
};

TEST(LatencyAudit, DigestIdenticalWithAuditOnAndOff) {
  ManualSystem plain(false);
  ManualSystem audited(true);
  for (int i = 0; i < 30000; ++i) {
    plain.sim.step();
    audited.sim.step();
  }
  // The auditor mirrors pipeline stages in its own state and never writes
  // into simulated components — bit-identical evolution is the contract.
  EXPECT_EQ(plain.sim.state_digest(), audited.sim.state_digest());
  EXPECT_GT(audited.audit.transactions(), 0u);
  EXPECT_EQ(plain.audit.transactions(), 0u);
}

// ---------------------------------------------------------------------------
// The auditor's own fault-injection test: a deliberately-tightened bound
// must fire the violation machinery (metric, flight flag, trace instant).
// ---------------------------------------------------------------------------

TEST(LatencyAudit, TightenedBoundFires) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);
  DmaConfig d;
  d.mode = DmaMode::kReadWrite;
  d.bytes_per_job = 1u << 16;
  DmaEngine dma("dma", hc.port_link(0), d);
  sim.add(dma);

  EventTrace trace;
  trace.enable(true);
  LatencyAudit audit(cfg.num_ports, 256);
  audit.set_enabled(true);
  audit.set_trace(&trace);
  audit.set_bound_override(1);  // nothing real completes in one cycle
  hc.set_latency_audit(&audit);
  mem.set_latency_audit(&audit);
  dma.set_latency_audit(&audit, 0);

  sim.reset();
  for (int i = 0; i < 20000; ++i) sim.step();

  ASSERT_GT(audit.transactions(), 0u);
  EXPECT_GT(audit.bound_violations(), 0u);
  EXPECT_EQ(audit.bound_violations(), audit.bound_checked());
  EXPECT_GT(audit.max_latency_ratio(), 1.0);
  EXPECT_GT(trace.count("hc.port0", "bound_violation"), 0u);
  const auto records = audit.flight_recorder().snapshot();
  ASSERT_FALSE(records.empty());
  EXPECT_TRUE(std::all_of(records.begin(), records.end(),
                          [](const FlightRecord& r) { return r.violation; }));
}

// A disabled auditor must observe nothing even when attached everywhere.
TEST(LatencyAudit, DisabledAuditorRecordsNothing) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);
  DmaConfig d;
  d.mode = DmaMode::kRead;
  d.bytes_per_job = 1u << 16;
  DmaEngine dma("dma", hc.port_link(0), d);
  sim.add(dma);

  LatencyAudit audit(cfg.num_ports, 256);  // default-disabled
  hc.set_latency_audit(&audit);
  mem.set_latency_audit(&audit);
  dma.set_latency_audit(&audit, 0);

  sim.reset();
  for (int i = 0; i < 5000; ++i) sim.step();
  EXPECT_EQ(audit.transactions(), 0u);
  EXPECT_EQ(audit.flight_recorder().size(), 0u);
}

// The ring grows as records arrive, so a capacity far beyond any run (here
// 2^50 records) keeps everything instead of allocating up front.
TEST(FlightRecorder, HugeCapacityKeepsEveryRecord) {
  FlightRecorder recorder(std::size_t{1} << 50);
  for (TxnId id = 1; id <= 3; ++id) {
    FlightRecord rec;
    rec.id = id;
    rec.latency = 10 * id;
    recorder.append(rec);
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);
  std::ostringstream os;
  recorder.write_jsonl(os);
  const std::string dump = os.str();
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 3);
  EXPECT_NE(dump.find("\"id\":3"), std::string::npos) << dump;
}

}  // namespace
}  // namespace axihc
