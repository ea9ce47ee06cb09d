// axihc-lint: the design-rule checker must catch each contract violation it
// exists for — fed by deliberately-broken fixture components — and stay
// silent on well-formed systems.
//
// The phase-race checks need the AXIHC_PHASE_CHECK instrumentation; those
// tests skip on uninstrumented builds (the CI static-analysis job runs them
// for real).
// The structural checks (connectivity, address map, widths) run everywhere.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "axi/axi.hpp"
#include "config/system_builder.hpp"
#include "sim/channel.hpp"
#include "sim/component.hpp"
#include "sim/phase_check.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

// Disarms and clears the process-wide detector on both ends of a test, so
// armed fixtures cannot leak violations into each other.
struct PhaseCheckGuard {
  PhaseCheckGuard() { PhaseCheck::reset(); }
  ~PhaseCheckGuard() { PhaseCheck::reset(); }
};

// --- fixtures: honest and lying components ------------------------------

/// Honest producer: declares its channel, stages one push per cycle while
/// there is room.
class HonestProducer : public Component {
 public:
  HonestProducer(std::string name, TimingChannel<int>& ch)
      : Component(std::move(name)), ch_(&ch) {
    ch_->add_endpoint(*this);
  }
  void tick(Cycle) override {
    if (ch_->can_push()) ch_->push(1);
  }

 private:
  TimingChannel<int>* ch_;
};

/// Breaks the two-phase discipline on purpose: commits its own channel
/// mid-tick and immediately consumes the freshly-committed element, so the
/// push, the visibility and the pop all land in one cycle.
class PhaseRacer : public Component {
 public:
  PhaseRacer(std::string name, TimingChannel<int>& ch)
      : Component(std::move(name)), ch_(&ch) {
    ch_->add_endpoint(*this);
  }
  void tick(Cycle) override {
    if (!ch_->can_push()) return;
    ch_->push(1);
    ch_->commit();                 // mid-compute commit
    if (ch_->can_pop()) ch_->pop();  // same-cycle read-after-commit
  }

 private:
  TimingChannel<int>* ch_;
};

/// Stateless placeholder for connectivity fixtures.
class IdleMaster : public Component {
 public:
  using Component::Component;
  void tick(Cycle) override {}
};

// --- phase-race checks (need the instrumented build) --------------------

TEST(LintLedger, FlagsPhaseRace) {
  if (!kPhaseCheckAvailable) {
    GTEST_SKIP() << "needs -DAXIHC_PHASE_CHECK=ON";
  }
  PhaseCheckGuard guard;
  Simulator sim;
  TimingChannel<int> ch("racer.ch", 4);
  sim.add(ch);
  PhaseRacer racer("racer", ch);
  sim.add(racer);

  PhaseCheck::arm(true);
  sim.run(3);

  EXPECT_GT(PhaseCheck::violation_count(), 0u);
  const LintReport report = DesignRuleChecker().run();
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_check("phase-race"));
}

TEST(LintLedger, CleanSystemHasNoLedgerFindings) {
  if (!kPhaseCheckAvailable) {
    GTEST_SKIP() << "needs -DAXIHC_PHASE_CHECK=ON";
  }
  PhaseCheckGuard guard;
  Simulator sim;
  TimingChannel<int> ch("clean.ch", 4);
  sim.add(ch);
  HonestProducer producer("producer", ch);
  sim.add(producer);

  PhaseCheck::arm(true);
  sim.run(10);

  const LintReport report = DesignRuleChecker().run();
  EXPECT_FALSE(report.has_errors()) << [&] {
    std::ostringstream os;
    report.write_text(os);
    return os.str();
  }();
}

TEST(LintLedger, DisarmedRunRecordsNothing) {
  if (!kPhaseCheckAvailable) {
    GTEST_SKIP() << "needs -DAXIHC_PHASE_CHECK=ON";
  }
  PhaseCheckGuard guard;
  Simulator sim;
  TimingChannel<int> ch("disarmed.ch", 4);
  sim.add(ch);
  PhaseRacer racer("racer", ch);
  sim.add(racer);

  sim.run(3);  // never armed

  EXPECT_EQ(PhaseCheck::violation_count(), 0u);
}

// --- structural checks (run on every build) -----------------------------

TEST(LintStructural, FlagsOverlappingDecodeMap) {
  DesignRuleChecker drc;
  drc.add_address_range("bank0", {0x0000, 0x2000}, AddressKind::kDecode);
  drc.add_address_range("bank1", {0x1000, 0x2000}, AddressKind::kDecode);

  const LintReport report = drc.run();
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_check("address-overlap"));
}

TEST(LintStructural, WarnsOnSharedHaWindows) {
  DesignRuleChecker drc;
  drc.add_address_range("ha0 buffer", {0x1000'0000, 1u << 20},
                        AddressKind::kMasterWindow);
  drc.add_address_range("ha1 buffer", {0x1000'8000, 1u << 20},
                        AddressKind::kMasterWindow);

  const LintReport report = drc.run();
  EXPECT_FALSE(report.has_errors());  // warning severity
  EXPECT_TRUE(report.has_check("address-overlap"));
}

TEST(LintStructural, WarnsOnWindowOutsideDecodeMap) {
  DesignRuleChecker drc;
  drc.add_address_range("memory decode map", {0, 1u << 20},
                        AddressKind::kDecode);
  drc.add_address_range("ha0 buffer", {0x1000'0000, 1u << 16},
                        AddressKind::kMasterWindow);

  const LintReport report = drc.run();
  EXPECT_TRUE(report.has_check("address-unmapped"));
  // SLVERR windows overlap mapped memory by design: never flagged.
  EXPECT_FALSE(report.has_errors());
}

TEST(LintStructural, WarnsOnUnconnectedLink) {
  Simulator sim;
  AxiLink link("dangling", {});
  link.register_with(sim);
  IdleMaster lonely("master");
  link.attach_endpoint(lonely);  // only one side attached
  sim.add(lonely);

  DesignRuleChecker drc;
  drc.expect_connected(link, "test port");
  const LintReport report = drc.run();
  EXPECT_TRUE(report.has_check("unconnected-link"));
  EXPECT_FALSE(report.has_errors());  // warning severity
}

TEST(LintStructural, FlagsBridgeWidthMismatch) {
  AxiLinkConfig wide;
  wide.data_bits = 128;
  AxiLinkConfig narrow;
  narrow.data_bits = 64;
  AxiLink up("up", wide);
  AxiLink down("down", narrow);

  DesignRuleChecker drc;
  drc.add_bridge("bridge0", up, down);
  const LintReport report = drc.run();
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_check("width-mismatch"));
}

TEST(LintStructural, FlagsIdHeadroomViolation) {
  AxiLinkConfig cfg;
  cfg.id_bits = 20;  // collides with the port index packed at bit 16
  AxiLink link("ha0.link", cfg);

  DesignRuleChecker drc;
  drc.require_id_headroom(link, 16, "the ID-extension");
  const LintReport report = drc.run();
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_check("width-mismatch"));

  AxiLink ok("ha1.link", {});  // default 16-bit IDs exactly fit
  DesignRuleChecker drc2;
  drc2.require_id_headroom(ok, 16, "the ID-extension");
  EXPECT_FALSE(drc2.run().has_errors());
}

// --- report output ------------------------------------------------------

TEST(LintReportOutput, JsonEscapesAndCounts) {
  LintReport report;
  report.add({LintSeverity::kError, "address-overlap", "a \"quoted\" owner",
              "line\nbreak", "back\\slash"});
  report.add({LintSeverity::kWarning, "unconnected-link", "port", "msg", ""});

  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"a \\\"quoted\\\" owner\""), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
}

TEST(LintReportOutput, TextListsFindingsAndSummary) {
  LintReport report;
  report.add({LintSeverity::kError, "phase-race", "ch", "bad", "fix it"});
  std::ostringstream os;
  report.write_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("error: [phase-race] ch: bad"), std::string::npos);
  EXPECT_NE(text.find("hint: fix it"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
}

// --- builder integration ------------------------------------------------

constexpr const char* kCleanIni = R"(
[system]
interconnect = hyperconnect
ports = 2
cycles = 2000
[ha0]
type = dma
bytes_per_job = 65536
max_jobs = 1
[ha1]
type = traffic
)";

TEST(LintSystem, CleanConfigLintsClean) {
  PhaseCheckGuard guard;
  auto system = build_system(kCleanIni);
  if (kPhaseCheckAvailable) {
    PhaseCheck::arm(true);
    system->run(2000);
  }
  const LintReport report = system->lint();
  EXPECT_FALSE(report.has_errors()) << [&] {
    std::ostringstream os;
    report.write_text(os);
    return os.str();
  }();
}

TEST(LintSystem, SharedDmaBuffersWarn) {
  PhaseCheckGuard guard;
  auto system = build_system(R"(
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
)");
  const LintReport report = system->lint();
  EXPECT_TRUE(report.has_check("address-overlap"));
  EXPECT_FALSE(report.has_errors());  // isolation warning, not an error
}

TEST(LintSystem, WindowBeyondMemBytesWarns) {
  PhaseCheckGuard guard;
  auto system = build_system(R"(
[system]
ports = 1
cycles = 1000
mem_bytes = 0x1000000
[ha0]
type = dma
read_base = 0x10000000
)");
  const LintReport report = system->lint();
  EXPECT_TRUE(report.has_check("address-unmapped"));
}

}  // namespace
}  // namespace axihc
