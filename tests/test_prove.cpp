// axihc-prove (src/prove): the static predictability certifier. Covers the
// certificate format, the disprovers on their fixtures, the pinned
// certificate of every shipped config, the unmodeled classifications, the
// address-map facts, determinism, the sweep screening (disproved annotation
// rows, structured error rows, cached certificates), and the headline
// soundness gate: over every shipped sweep grid every statically proven
// bound must dominate what the simulation of the same cell actually
// observed.
#include "prove/prove.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "sweep/json_mini.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/sweep.hpp"

namespace axihc {
namespace {

std::string repo_file(const std::string& rel) {
  return std::string(AXIHC_REPO_ROOT) + "/" + rel;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  AXIHC_CHECK_MSG(in.good(), "cannot read " << path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A plain, fully-modeled two-port system: reservation on, nonzero budgets.
constexpr const char* kHealthy =
    "[system]\n"
    "interconnect = hyperconnect\n"
    "ports = 2\n"
    "cycles = 2000\n"
    "[hyperconnect]\n"
    "nominal_burst = 16\n"
    "max_outstanding = 4\n"
    "reservation_period = 4000\n"  // 72 x S(16) ~ 2952 cycles: feasible
    "budgets = 36 36\n"
    "[ha0]\n"
    "type = traffic\n"
    "direction = read\n"
    "burst = 16\n"
    "outstanding = 8\n"
    "[ha1]\n"
    "type = traffic\n"
    "direction = mixed\n"
    "burst = 16\n"
    "outstanding = 8\n";

ProveReport prove_text(const std::string& ini_text) {
  return build_system(ini_text)->prove();
}

/// The pre-rendered JSON value of `check`'s fact `key`, or "" if absent.
std::string fact(const ProveCheck& check, const std::string& key) {
  for (const auto& [k, value] : check.facts) {
    if (k == key) return value;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Certificate structure + determinism

TEST(ProveCertificate, JsonStructure) {
  const ProveReport proof = prove_text(kHealthy);
  EXPECT_EQ(proof.verdict(), ProveVerdict::kProven);

  const JsonValue cert = parse_json(proof.certificate_json());
  EXPECT_EQ(cert.find("schema")->str_or(""), "axihc-prove-v3");
  EXPECT_EQ(cert.find("verdict")->str_or(""), "proven");
  // The plan's facts live in the reservation check only.
  EXPECT_EQ(cert.find("reservation"), nullptr);

  const JsonValue* checks = cert.find("checks");
  ASSERT_NE(checks, nullptr);
  ASSERT_EQ(checks->items.size(), 3u);
  const std::vector<std::string> ids = {"reservation", "wcla-bound",
                                        "address-map"};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(checks->items[i].find("id")->str_or(""), ids[i]);
    EXPECT_EQ(checks->items[i].find("verdict")->str_or(""), "proven");
    EXPECT_FALSE(checks->items[i].find("detail")->str_or("").empty());
  }
  const JsonValue& reservation = checks->items[0];
  EXPECT_EQ(reservation.find("reservation")->str_or(""), "on");
  EXPECT_TRUE(reservation.find("feasible")->boolean);
  EXPECT_GT(reservation.find("demand")->number, 0.0);

  const JsonValue* ports = cert.find("ports");
  ASSERT_NE(ports, nullptr);
  ASSERT_EQ(ports->items.size(), 2u);
  for (const JsonValue& port : ports->items) {
    EXPECT_GT(port.find("wcrt_read")->number, 0.0);
  }
}

TEST(ProveCertificate, DigestIsStableAndContentSensitive) {
  const ProveReport a = prove_text(kHealthy);
  const ProveReport b = prove_text(kHealthy);
  // Pure function of the elaborated system: rebuilding yields the same
  // certificate byte for byte (this is what lets the sweep cache reuse it).
  EXPECT_EQ(a.certificate_json(), b.certificate_json());
  EXPECT_EQ(a.certificate_digest(), b.certificate_digest());
  EXPECT_NE(a.certificate_digest(), 0u);

  std::string tweaked = kHealthy;
  const std::size_t pos = tweaked.find("budgets = 36 36");
  ASSERT_NE(pos, std::string::npos);
  tweaked.replace(pos, 15, "budgets = 40 32");
  EXPECT_NE(prove_text(tweaked).certificate_digest(), a.certificate_digest());
}

TEST(ProveCertificate, VerdictStableAcrossThreadAndBackendEnv) {
  // The prover never simulates, so runtime knobs that select tick kernels
  // or worker counts must not be able to change a verdict or certificate.
  const std::string baseline = prove_text(kHealthy).certificate_json();
  for (const char* threads : {"1", "4"}) {
    ::setenv("AXIHC_BENCH_THREADS", threads, 1);
    EXPECT_EQ(prove_text(kHealthy).certificate_json(), baseline);
  }
  ::unsetenv("AXIHC_BENCH_THREADS");
}

// ---------------------------------------------------------------------------
// Pinned certificates: a change to any certified number, fact or verdict of
// a shipped config fails here, so moving a bound is a deliberate re-pin.

TEST(ProveCertificate, ShippedConfigsArePinned) {
  const std::vector<std::pair<std::string, std::uint64_t>> pins = {
      {"examples/configs/campaign_smoke.ini", 0xfc348568d135c1e9ull},
      {"examples/configs/fig4_isolation.ini", 0x3927332a8210ff1eull},
      {"examples/configs/fig5_hc90.ini", 0x3acf5a8f3226d004ull},
      {"examples/configs/ooo_future_platform.ini", 0xd4f841d4d496d894ull},
      {"examples/configs/quickstart.ini", 0x27caa00e91bf9b6aull},
      {"examples/configs/smartconnect_unfair.ini", 0xfa9416f1dd7518f0ull},
      {"examples/configs/watchdog_overrun.ini", 0xaf885dcd8211cacdull},
      {"tests/config_fixtures/overcommit.ini", 0x77f37f3979091968ull},
      {"tests/config_fixtures/shared_windows.ini", 0x7deb241261baed15ull},
      {"tests/config_fixtures/stall_faults.ini", 0xfc348568d135c1e9ull},
      {"tests/config_fixtures/starved_port.ini", 0xcdaede16596958c1ull},
      {"tests/config_fixtures/unmapped_window.ini", 0xb2c5e3b860ae0908ull},
  };
  std::set<std::string> shipped;
  for (const std::string dir : {"examples/configs", "tests/config_fixtures"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(repo_file(dir))) {
      if (entry.path().extension() != ".ini") continue;
      shipped.insert(dir + "/" + entry.path().filename().string());
    }
  }
  std::set<std::string> pinned;
  for (const auto& [rel, digest] : pins) {
    pinned.insert(rel);
    const ProveReport proof = prove_text(read_file(repo_file(rel)));
    EXPECT_EQ(proof.certificate_digest(), digest)
        << rel << ": pin 0x" << std::hex << proof.certificate_digest()
        << std::dec << " if this certificate is intended:\n"
        << proof.certificate_json();
  }
  // Every shipped config is pinned.
  EXPECT_EQ(pinned, shipped);
}

// ---------------------------------------------------------------------------
// The disprover fires on the fixture it exists for

TEST(ProveDisprovers, ZeroBudgetStarvationIsRefuted) {
  const ProveReport proof = prove_text(
      read_file(repo_file("tests/config_fixtures/starved_port.ini")));
  EXPECT_TRUE(proof.disproved());
  EXPECT_EQ(proof.check("reservation")->verdict, ProveVerdict::kDisproved);
  // No finite bound exists for a port that is never scheduled.
  EXPECT_EQ(proof.check("wcla-bound")->verdict, ProveVerdict::kDisproved);
  EXPECT_NE(proof.check("reservation")->detail.find("budget 0"),
            std::string::npos);
}

TEST(ProveChecks, OvercommitWarnsButDoesNotDisprove) {
  const ProveReport proof =
      prove_text(read_file(repo_file("tests/config_fixtures/overcommit.ini")));
  // Overcommit keeps sound (composite-form) bounds: proven, not disproved.
  EXPECT_EQ(proof.verdict(), ProveVerdict::kProven);
  const ProveCheck& plan = *proof.check("reservation");
  EXPECT_EQ(fact(plan, "reservation"), "\"on\"");
  EXPECT_EQ(fact(plan, "feasible"), "false");
  EXPECT_GT(std::stoull(fact(plan, "demand")), 1000u);  // the fixture's period
}

// ---------------------------------------------------------------------------
// Unmodeled classifications (the honest "no model" third verdict)

TEST(ProveChecks, SmartConnectIsUnmodeledNotDisproved) {
  const ProveReport proof = prove_text(
      "[system]\ninterconnect = smartconnect\nports = 2\ncycles = 2000\n"
      "[ha0]\ntype = traffic\ndirection = read\n");
  EXPECT_EQ(proof.verdict(), ProveVerdict::kUnmodeled);
  EXPECT_FALSE(proof.disproved());
  EXPECT_EQ(proof.check("wcla-bound")->verdict, ProveVerdict::kUnmodeled);
}

TEST(ProveChecks, OutOfOrderMemoryIsUnmodeledForWclaOnly) {
  const ProveReport proof =
      prove_text(read_file(repo_file("examples/configs/ooo_future_platform.ini")));
  EXPECT_EQ(proof.check("wcla-bound")->verdict, ProveVerdict::kUnmodeled);
  // The HyperConnect's own checks still run and pass.
  EXPECT_EQ(proof.check("reservation")->verdict, ProveVerdict::kProven);
  EXPECT_EQ(proof.check("address-map")->verdict, ProveVerdict::kProven);
}

// ---------------------------------------------------------------------------
// The certified bound is the enforced bound

TEST(ProveAudit, CertifiedBoundsAreTheAuditorsBounds) {
  std::size_t modeled = 0;
  std::size_t unmodeled = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           repo_file("examples/configs"))) {
    if (entry.path().extension() != ".ini") continue;
    SCOPED_TRACE(entry.path().filename().string());
    auto sys = build_system(read_file(entry.path().string()));
    const ProveReport proof = sys->prove();
    const std::vector<ProveHaModel> has = sys->prove_input().has;
    sys->observe_config().latency_audit = true;
    sys->run(1);  // wires the auditor
    const LatencyAudit* audit = sys->latency_audit();
    ASSERT_NE(audit, nullptr);
    if (proof.check("wcla-bound")->verdict == ProveVerdict::kUnmodeled) {
      EXPECT_FALSE(audit->bounds_enabled());
      ++unmodeled;
      continue;
    }
    ASSERT_TRUE(audit->bounds_enabled());
    ASSERT_EQ(proof.wcrt_read.size(), has.size());
    for (std::size_t p = 0; p < has.size(); ++p) {
      const auto port = static_cast<PortIndex>(p);
      const BeatCount beats = has[p].burst_beats;
      if (has[p].reads) {
        EXPECT_EQ(proof.wcrt_read[p], audit->bound_for(port, false, beats))
            << has[p].name;
      }
      if (has[p].writes) {
        EXPECT_EQ(proof.wcrt_write[p], audit->bound_for(port, true, beats))
            << has[p].name;
      }
    }
    ++modeled;
  }
  EXPECT_GE(modeled, 5u);
  EXPECT_GE(unmodeled, 2u);
}

TEST(ProveChecks, Fig5ReservationDemandPin) {
  // The paper's HC-90-10 case study is overcommitted by design: 64+7
  // budgets at nominal burst 16 need 2911 worst-case cycles per 2000-cycle
  // period on the zcu102 timing model. Pinning the number keeps the demand
  // arithmetic honest.
  const ProveReport proof =
      prove_text(read_file(repo_file("examples/configs/fig5_hc90.ini")));
  EXPECT_EQ(proof.verdict(), ProveVerdict::kProven);
  const ProveCheck& plan = *proof.check("reservation");
  EXPECT_EQ(fact(plan, "reservation"), "\"on\"");
  EXPECT_EQ(fact(plan, "feasible"), "false");
  EXPECT_EQ(fact(plan, "demand"), "2911");
}

TEST(ProveChecks, Fig4IsFeasibleAndFullyProven) {
  const ProveReport proof =
      prove_text(read_file(repo_file("examples/configs/fig4_isolation.ini")));
  EXPECT_EQ(proof.verdict(), ProveVerdict::kProven);
  for (const ProveCheck& c : proof.checks) {
    EXPECT_EQ(c.verdict, ProveVerdict::kProven) << c.id;
  }
}

// ---------------------------------------------------------------------------
// address-map: an unmapped HA job window disproves; shared windows are facts

/// A copy of the address-map check of `proof`.
ProveCheck address_map(const ProveReport& proof) {
  const ProveCheck* c = proof.check("address-map");
  AXIHC_CHECK(c != nullptr);
  return *c;
}

TEST(ProveAddressMap, ShippedExamplesHaveDisjointMappedWindows) {
  std::size_t configs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           repo_file("examples/configs"))) {
    if (entry.path().extension() != ".ini") continue;
    SCOPED_TRACE(entry.path().filename().string());
    const ProveCheck c =
        address_map(prove_text(read_file(entry.path().string())));
    EXPECT_EQ(c.verdict, ProveVerdict::kProven);
    EXPECT_EQ(fact(c, "shared_windows"), "[]");
    EXPECT_EQ(fact(c, "unmapped_windows"), "[]");
    ++configs;
  }
  EXPECT_GE(configs, 5u);
}

TEST(ProveAddressMap, SharedDmaBuffersAreNamed) {
  const ProveCheck c = address_map(prove_text(R"(
[system]
ports = 2
cycles = 1000
[ha0]
type = dma
read_base = 0x10000000
write_base = 0x20000000
[ha1]
type = dma
read_base = 0x10000000
write_base = 0x28000000
)"));
  EXPECT_EQ(c.verdict, ProveVerdict::kProven);
  EXPECT_EQ(fact(c, "shared_windows"),
            "[\"ha0 read buffer / ha1 read buffer\"]");
}

TEST(ProveAddressMap, DnnBuffersArePerPort) {
  // One HA type on all four ports, every buffer at its default base.
  const auto four_ports = [](const std::string& ha) {
    std::string ini = "[system]\nports = 4\ncycles = 1000\n";
    for (int p = 0; p < 4; ++p) {
      ini += "[ha" + std::to_string(p) + "]\n" + ha + "\n";
    }
    return ini;
  };
  std::vector<ProveWindow> dnn_windows;
  for (const std::string network : {"googlenet", "alexnet"}) {
    SCOPED_TRACE(network);
    const std::string ini = four_ports("type = dnn\nnetwork = " + network);
    const ProveCheck c = address_map(prove_text(ini));
    EXPECT_EQ(c.verdict, ProveVerdict::kProven);
    EXPECT_EQ(fact(c, "shared_windows"), "[]");
    for (const ProveHaModel& ha : build_system(ini)->prove_input().has) {
      dnn_windows.insert(dnn_windows.end(), ha.windows.begin(),
                         ha.windows.end());
    }
  }
  // Nor does any DNN buffer share bytes with a default dma/traffic window.
  for (const char* type : {"type = dma", "type = traffic"}) {
    for (const ProveHaModel& ha :
         build_system(four_ports(type))->prove_input().has) {
      for (const ProveWindow& w : ha.windows) {
        for (const ProveWindow& d : dnn_windows) {
          EXPECT_FALSE(d.range.overlaps(w.range.base, w.range.bytes))
              << d.name << " / " << w.name;
        }
      }
    }
  }
}

TEST(ProveAddressMap, WindowBeyondMemBytesIsUnmapped) {
  const ProveReport proof = prove_text(
      read_file(repo_file("tests/config_fixtures/unmapped_window.ini")));
  const ProveCheck c = address_map(proof);
  // Both buffers of the default readwrite DMA lie above 16 MiB: every
  // access DECERRs, so the map is disproved and the windows are named.
  EXPECT_EQ(c.verdict, ProveVerdict::kDisproved);
  EXPECT_TRUE(proof.disproved());
  EXPECT_EQ(fact(c, "unmapped_windows"),
            "[\"ha0 read buffer\",\"ha0 write buffer\"]");
  EXPECT_EQ(c.detail.rfind("ha0 read buffer", 0), 0u) << c.detail;
  EXPECT_NE(c.detail.find("outside every decode entry"), std::string::npos);
  // The other checks do not depend on where the windows lie.
  EXPECT_EQ(proof.check("reservation")->verdict, ProveVerdict::kProven);
  EXPECT_EQ(proof.check("wcla-bound")->verdict, ProveVerdict::kProven);
}

TEST(ProveAddressMap, WindowMustFitOneDecodeEntry) {
  ProveInput in = build_system(kHealthy)->prove_input();
  in.has.resize(1);
  in.has[0].windows = {{"ha0 buffer", {0x1000, 0x2000}}};
  // Two adjacent entries cover the window together but neither holds it
  // whole: a burst decodes only inside one entry.
  in.decode = {{0x0, 0x2000}, {0x2000, 0x2000}};
  ProveCheck c = address_map(prove(in));
  EXPECT_EQ(fact(c, "unmapped_windows"), "[\"ha0 buffer\"]");
  EXPECT_EQ(c.verdict, ProveVerdict::kDisproved);
  in.decode = {{0x0, 0x4000}};
  c = address_map(prove(in));
  EXPECT_EQ(fact(c, "unmapped_windows"), "[]");
  EXPECT_EQ(c.verdict, ProveVerdict::kProven);
  // Without a decode map every address decodes.
  in.decode.clear();
  c = address_map(prove(in));
  EXPECT_EQ(fact(c, "unmapped_windows"), "[]");
  EXPECT_EQ(c.verdict, ProveVerdict::kProven);
}

// Hand-built inputs for two findings the retired design-rule checker
// reported as structural lint; the prover now carries both.

TEST(LintStructural, WarnsOnSharedHaWindows) {
  ProveInput in = build_system(kHealthy)->prove_input();
  in.has.resize(2);
  in.has[0].windows = {{"ha0 buffer", {0x1000'0000, 1u << 20}}};
  in.has[1].windows = {{"ha1 buffer", {0x1000'8000, 1u << 20}}};
  const ProveReport proof = prove(in);
  // A partial overlap is named, and it is a fact, never a disproof.
  const ProveCheck c = address_map(proof);
  EXPECT_EQ(fact(c, "shared_windows"), "[\"ha0 buffer / ha1 buffer\"]");
  EXPECT_EQ(c.verdict, ProveVerdict::kProven);
  EXPECT_FALSE(proof.disproved());
}

// ---------------------------------------------------------------------------
// Sweep wiring: screening, annotation rows, error rows, cached certificates

TEST(ProveSweep, DisprovedCellsBecomeAnnotationRowsWithoutSimulation) {
  const std::string text =
      "[system]\ninterconnect = hyperconnect\nports = 2\n"
      "[hyperconnect]\nreservation_period = 2000\n"
      "[ha0]\ntype = traffic\ndirection = read\n"
      "[ha1]\ntype = traffic\ndirection = mixed\n"
      "[sweep]\nname = screen\ncycles = 2000\n"
      "axis.hyperconnect.budgets = 36 36 | 36 0\n";
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run_sweep(IniFile::parse(text), opts);
  ASSERT_EQ(s.lines.size(), 2u);
  EXPECT_EQ(s.disproved, 1u);

  const JsonValue good = parse_json(s.lines[0]);
  EXPECT_EQ(good.find("prove_verdict")->str_or(""), "proven");
  ASSERT_NE(good.find("cycles"), nullptr);
  // Soundness on the simulated cell of this very sweep.
  EXPECT_GT(good.find("bound_checked")->number, 0.0);
  EXPECT_EQ(good.find("bound_violations")->number, 0.0);

  const JsonValue bad = parse_json(s.lines[1]);
  EXPECT_EQ(bad.find("prove_verdict")->str_or(""), "disproved");
  EXPECT_EQ(bad.find("cycles"), nullptr);        // never simulated
  EXPECT_EQ(bad.find("state_digest"), nullptr);  // nothing to digest
  EXPECT_NE(bad.find("prove_detail")->str_or("").find("reservation"),
            std::string::npos);
  ASSERT_NE(bad.find("prove_certificate"), nullptr);

  // The report excludes the annotation row instead of polluting the front.
  const std::string md = sweep_report_markdown(s.lines);
  EXPECT_NE(md.find("Excluded 1 statically disproved"), std::string::npos);
  const JsonValue rep = parse_json(sweep_report_json(s.lines));
  EXPECT_EQ(rep.find("rows")->number, 1.0);
  EXPECT_EQ(rep.find("disproved")->number, 1.0);
}

TEST(ProveSweep, BuilderRejectionsBecomeStructuredErrorRows) {
  const std::string text =
      "[system]\ninterconnect = hyperconnect\nports = 2\n"
      "[hyperconnect]\nbudgets = 36 36\nreservation_period = 2000\n"
      "[ha0]\ntype = dma\n"
      "[ha1]\ntype = traffic\n"
      "[sweep]\nname = err\ncycles = 2000\naxis.ha0.mode = read | bogus\n";
  SweepOptions opts;
  opts.deterministic = true;
  const SweepSummary s = run_sweep(IniFile::parse(text), opts);
  ASSERT_EQ(s.lines.size(), 2u);
  EXPECT_EQ(s.errors, 1u);
  const JsonValue bad = parse_json(s.lines[1]);
  ASSERT_NE(bad.find("error"), nullptr);
  EXPECT_NE(bad.find("error")->str_or("").find("bogus"), std::string::npos);
  EXPECT_EQ(bad.find("cycles"), nullptr);  // the sweep survived the cell
  const std::string md = sweep_report_markdown(s.lines);
  EXPECT_NE(md.find("failed to build"), std::string::npos);
}

TEST(ProveSweep, AnnotationRowsRoundTripThroughTheCache) {
  ::setenv("AXIHC_CODE_VERSION", "prove_cache_v1", 1);
  const std::string dir = testing::TempDir() + "axihc_prove_cache";
  std::filesystem::remove_all(dir);
  const std::string text =
      "[system]\ninterconnect = hyperconnect\nports = 2\n"
      "[hyperconnect]\nreservation_period = 2000\n"
      "[ha0]\ntype = traffic\ndirection = read\n"
      "[ha1]\ntype = traffic\ndirection = mixed\n"
      "[sweep]\nname = screen\ncycles = 2000\n"
      "axis.hyperconnect.budgets = 36 36 | 36 0\n";
  SweepOptions opts;
  opts.cache_dir = dir;
  opts.deterministic = true;
  const SweepSummary first = run_sweep(IniFile::parse(text), opts);
  EXPECT_EQ(first.cache_hits, 0u);
  const SweepSummary second = run_sweep(IniFile::parse(text), opts);
  // Disproved annotation rows (with their certificate digests) are cached
  // and re-served just like measurements, and invalidate with the code
  // version like everything else.
  EXPECT_EQ(second.cache_hits, 2u);
  EXPECT_EQ(second.lines, first.lines);
  EXPECT_EQ(second.disproved, 1u);
  ::setenv("AXIHC_CODE_VERSION", "prove_cache_v2", 1);
  const SweepSummary third = run_sweep(IniFile::parse(text), opts);
  EXPECT_EQ(third.cache_hits, 0u);
  ::unsetenv("AXIHC_CODE_VERSION");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Headline soundness gate: pareto1k, bound vs observation

/// Runs `spec_rel` fresh (no cache) and asserts, per simulated cell, that
/// the statically certified bounds dominate what the run observed.
std::size_t assert_sweep_soundness(const std::string& spec_rel) {
  const IniFile spec = IniFile::parse(read_file(repo_file(spec_rel)));
  SweepOptions opts;
  opts.deterministic = true;  // no cache: every cell simulates fresh
  const SweepSummary s = run_sweep(spec, opts);
  EXPECT_EQ(s.disproved, 0u) << spec_rel;  // shipped grids stay fully proven
  EXPECT_EQ(s.errors, 0u) << spec_rel;
  std::size_t checked = 0;
  for (const std::string& line : s.lines) {
    const JsonValue row = parse_json(line);
    const std::string verdict = row.find("prove_verdict")->str_or("");
    // A shipped grid may contain honestly-unmodeled cells (SmartConnect
    // baseline legs); it must never contain disproved ones.
    EXPECT_NE(verdict, "disproved") << line;
    if (verdict != "proven") continue;
    // THE soundness contract: a certified worst case is never beaten by a
    // run of the very configuration it certifies. The certified WCLA
    // bounds held transaction by transaction (the runtime auditor counted
    // zero violations).
    EXPECT_EQ(row.find("bound_violations")->number, 0.0) << line;
    ++checked;
  }
  return checked;
}

TEST(ProveSoundness, StaticBoundsDominateSimulationOverPareto1k) {
  EXPECT_EQ(assert_sweep_soundness("examples/sweeps/pareto1k.ini"), 1280u);
}

TEST(ProveSoundness, StaticBoundsDominateFig4AndFig5Grids) {
  // The paper-figure grids (isolation sweep, HC-90-10 contention grid):
  // the same bound-vs-observation contract on the cells the figures are
  // actually drawn from.
  EXPECT_GT(assert_sweep_soundness("examples/sweeps/fig4_isolation.ini"), 0u);
  EXPECT_GT(assert_sweep_soundness("examples/sweeps/fig5_grid.ini"), 0u);
}

TEST(ProveSoundness, StaticBoundsDominateEveryOtherShippedSweep) {
  // Every spec under examples/sweeps, so a new one is gated without a test
  // edit. The three above are not rerun; the rest are fully proven grids.
  const std::set<std::string> covered = {"pareto1k", "fig4_isolation",
                                         "fig5_grid"};
  std::size_t specs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           repo_file("examples/sweeps"))) {
    const std::string stem = entry.path().stem().string();
    if (entry.path().extension() != ".ini" || covered.contains(stem)) {
      continue;
    }
    const std::string rel = "examples/sweeps/" + stem + ".ini";
    const SweepSpec spec = parse_sweep_spec(IniFile::parse(read_file(
        repo_file(rel))));
    EXPECT_EQ(assert_sweep_soundness(rel), spec.cell_count()) << rel;
    ++specs;
  }
  // smoke64, ablation_reservation and ablation_fifo_depth today.
  EXPECT_GE(specs, 3u);
}

}  // namespace
}  // namespace axihc
