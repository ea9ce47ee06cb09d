// RecoveryManager tests: the per-port FSM (backoff, demotion, escalation),
// the graceful budget degradation with its conservation invariant, and the
// closed-loop acceptance scenario — a transient fault under contention must
// end with the port recovered and the original reservation split restored.
#include "recovery/recovery_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "driver/hyperconnect_driver.hpp"
#include "driver/register_master.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

// Direct-FSM fixture: a real control-bus stack (register master + driver)
// against a real HyperConnect, with the hypervisor's poll hooks driven by
// hand so each transition can be pinned to a cycle.
struct RecoveryFixture : ::testing::Test {
  RecoveryFixture()
      : hc("hc", two_ports()),
        mem("ddr", hc.master_link(), store, {}),
        rm("rm", hc.control_link()),
        driver(rm, 2),
        recovery("recovery", driver, policy()) {
    hc.register_with(sim);
    sim.add(mem);
    sim.add(rm);
    sim.add(recovery);
    sim.reset();
    recovery.set_baseline_budgets({16, 8});
    driver.set_budget(0, 16);
    driver.set_budget(1, 8);
    flush();
  }

  static HyperConnectConfig two_ports() {
    HyperConnectConfig cfg;
    cfg.num_ports = 2;
    return cfg;
  }

  static RecoveryPolicy policy() {
    RecoveryPolicy p;
    p.backoff_base = 100;
    p.backoff_max = 400;
    p.probation_window = 200;
    p.max_attempts = 2;
    p.drain_timeout = 300;
    return p;
  }

  /// Lets queued control-bus writes land (the hypervisor polls only when
  /// the driver is idle, so the FSM may assume the previous poll's writes
  /// completed).
  void flush() {
    ASSERT_TRUE(sim.run_until([&] { return driver.idle(); }, 10000));
  }

  /// The conservation invariant: whoever holds the budget, the window's
  /// reserved capacity never changes.
  void expect_conserved() {
    std::uint64_t sum = 0;
    for (PortIndex p = 0; p < 2; ++p) sum += recovery.intended_budget(p);
    EXPECT_EQ(sum, 24u);
    EXPECT_EQ(recovery.conservation_violations(), 0u);
  }

  /// Puts port `p` into Quarantined at `now`, the way the hypervisor would
  /// (decouple first, then report the fault).
  void quarantine_port(PortIndex p, Cycle now) {
    driver.set_coupled(p, false);
    recovery.on_fault(p, now);
    flush();
  }

  Simulator sim;
  BackingStore store;
  HyperConnect hc;
  MemoryController mem;
  RegisterMaster rm;
  HyperConnectDriver driver;
  RecoveryManager recovery;
};

TEST_F(RecoveryFixture, FullEpisodeRestoresOriginalSplit) {
  quarantine_port(0, 1000);
  EXPECT_EQ(recovery.state(0), RecoveryState::kQuarantined);
  EXPECT_FALSE(recovery.wants_coupled(0));
  // Graceful degradation: the quarantined port's 16 txns move to port 1.
  EXPECT_EQ(recovery.intended_budget(0), 0u);
  EXPECT_EQ(recovery.intended_budget(1), 24u);
  EXPECT_EQ(hc.runtime().budgets[0], 0u);
  EXPECT_EQ(hc.runtime().budgets[1], 24u);
  expect_conserved();

  // Backoff expired and the port is drained: Draining falls straight
  // through to Resetting in the same poll — fault cleared, budget split
  // restored, recouple queued.
  recovery.on_poll(1100, {0, 0});
  flush();
  EXPECT_EQ(recovery.state(0), RecoveryState::kResetting);
  EXPECT_EQ(recovery.attempts(0), 1u);
  EXPECT_EQ(recovery.intended_budget(0), 16u);
  EXPECT_EQ(recovery.intended_budget(1), 8u);
  EXPECT_EQ(hc.runtime().budgets[0], 16u);
  EXPECT_FALSE(hc.port_fault(0).faulted);
  EXPECT_TRUE(hc.runtime().coupled[0]);
  expect_conserved();

  // Next poll: recouple write has landed, HA reset fires, probation starts.
  bool reset_called = false;
  recovery.set_ha_reset([&](PortIndex p) { reset_called = (p == 0); });
  recovery.on_poll(1200, {0, 0});
  EXPECT_TRUE(reset_called);
  EXPECT_EQ(recovery.state(0), RecoveryState::kProbation);

  // Probation window (200 cycles) survived fault-free -> recovered.
  recovery.on_poll(1450, {0, 0});
  EXPECT_EQ(recovery.state(0), RecoveryState::kHealthy);
  EXPECT_EQ(recovery.recoveries(), 1u);
  EXPECT_EQ(recovery.attempts(0), 0u);
  EXPECT_DOUBLE_EQ(recovery.mean_time_to_recovery(), 450.0);
  expect_conserved();
}

TEST_F(RecoveryFixture, FaultDuringDrainingDemotesWithDoubledBackoff) {
  quarantine_port(0, 1000);
  EXPECT_EQ(recovery.backoff(0), 100u);

  // Backoff expired but the port still has transactions in flight: it
  // stays in Draining.
  recovery.on_poll(1100, {5, 0});
  EXPECT_EQ(recovery.state(0), RecoveryState::kDraining);

  // A fresh fault mid-drain demotes: back to Quarantined, backoff doubled.
  recovery.on_fault(0, 1150);
  flush();
  EXPECT_EQ(recovery.state(0), RecoveryState::kQuarantined);
  EXPECT_EQ(recovery.backoff(0), 200u);
  EXPECT_EQ(recovery.demotions(), 1u);
  EXPECT_EQ(recovery.recoveries(), 0u);
  expect_conserved();
}

TEST_F(RecoveryFixture, FaultInProbationDoublesBackoff) {
  quarantine_port(0, 0);
  recovery.on_poll(100, {0, 0});  // Draining -> Resetting
  flush();
  recovery.on_poll(200, {0, 0});  // Resetting -> Probation
  EXPECT_EQ(recovery.state(0), RecoveryState::kProbation);

  recovery.on_fault(0, 250);
  flush();
  EXPECT_EQ(recovery.state(0), RecoveryState::kQuarantined);
  EXPECT_EQ(recovery.backoff(0), 200u);
  EXPECT_EQ(recovery.demotions(), 1u);
  // The port donates its budget again for the second attempt.
  EXPECT_EQ(recovery.intended_budget(0), 0u);
  EXPECT_EQ(recovery.intended_budget(1), 24u);
  expect_conserved();
}

TEST_F(RecoveryFixture, AttemptExhaustionEscalatesToPermanentIsolation) {
  quarantine_port(0, 0);
  // Attempt 1: quarantine -> drain -> probation -> fault -> demote.
  recovery.on_poll(100, {0, 0});
  flush();
  recovery.on_poll(200, {0, 0});
  recovery.on_fault(0, 250);
  flush();
  EXPECT_EQ(recovery.state(0), RecoveryState::kQuarantined);

  // Attempt 2: same story. attempts == max_attempts when the next fault
  // arrives, so the demotion escalates.
  recovery.on_poll(500, {0, 0});
  flush();
  recovery.on_poll(600, {0, 0});
  EXPECT_EQ(recovery.state(0), RecoveryState::kProbation);
  EXPECT_EQ(recovery.attempts(0), 2u);
  recovery.on_fault(0, 650);
  flush();
  EXPECT_EQ(recovery.state(0), RecoveryState::kPermanentlyIsolated);
  EXPECT_EQ(recovery.escalations(), 1u);
  EXPECT_FALSE(recovery.wants_coupled(0));
  // Terminal state still counts as converged (no episode in flight), and
  // the dead port's bandwidth stays with the survivor.
  EXPECT_TRUE(recovery.all_converged());
  EXPECT_EQ(recovery.intended_budget(0), 0u);
  EXPECT_EQ(recovery.intended_budget(1), 24u);
  expect_conserved();

  // Further polls and faults leave the terminal state alone.
  recovery.on_poll(2000, {0, 0});
  recovery.on_fault(0, 2100);
  EXPECT_EQ(recovery.state(0), RecoveryState::kPermanentlyIsolated);
  EXPECT_EQ(recovery.escalations(), 1u);
}

TEST_F(RecoveryFixture, DrainTimeoutForcesTheRecouple) {
  quarantine_port(0, 0);
  recovery.on_poll(100, {7, 0});  // backoff expired, still 7 in flight
  EXPECT_EQ(recovery.state(0), RecoveryState::kDraining);
  recovery.on_poll(300, {7, 0});  // deadline is 100 + 300
  EXPECT_EQ(recovery.state(0), RecoveryState::kDraining);
  recovery.on_poll(450, {7, 0});  // past the drain deadline: give up waiting
  flush();
  EXPECT_EQ(recovery.state(0), RecoveryState::kResetting);
}

// Largest-remainder apportionment across three ports: pool 10 over a 6/3
// baseline splits 7/3 (the remainder goes to the largest fractional part),
// integer-exact and deterministic.
TEST(RecoveryApportionment, ProportionalLargestRemainder) {
  Simulator sim;
  HyperConnectConfig cfg;
  cfg.num_ports = 3;
  HyperConnect hc("hc", cfg);
  BackingStore store;
  MemoryController mem("ddr", hc.master_link(), store, {});
  RegisterMaster rm("rm", hc.control_link());
  HyperConnectDriver driver(rm, 3);
  RecoveryManager recovery("recovery", driver, {});
  hc.register_with(sim);
  sim.add(mem);
  sim.add(rm);
  sim.add(recovery);
  sim.reset();
  recovery.set_baseline_budgets({10, 6, 3});

  driver.set_coupled(0, false);
  recovery.on_fault(0, 100);
  ASSERT_TRUE(sim.run_until([&] { return driver.idle(); }, 10000));

  EXPECT_EQ(recovery.intended_budget(0), 0u);
  EXPECT_EQ(recovery.intended_budget(1), 13u);  // 6 + 7
  EXPECT_EQ(recovery.intended_budget(2), 6u);   // 3 + 3
  EXPECT_EQ(recovery.conservation_violations(), 0u);
  EXPECT_EQ(hc.runtime().budgets[1], 13u);
  EXPECT_EQ(hc.runtime().budgets[2], 6u);
}

// ---------------------------------------------------------------------------
// Acceptance: full closed loop through the configuration layer. A transient
// W-stream stall under a 16/8 contention split must be detected, the port
// quarantined with its budget redistributed, then recovered within the
// backoff schedule with the original split restored.
// ---------------------------------------------------------------------------

constexpr char kClosedLoopIni[] = R"(
[system]
interconnect = hyperconnect
platform = zcu102
ports = 2
cycles = 30000

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

[fault0]
kind = stall_w
port = 1
start = 3000
duration = 3000
)";

TEST(RecoveryClosedLoop, TransientFaultQuarantinesThenRestoresSplit) {
  ConfiguredSystem cs(IniFile::parse(kClosedLoopIni));
  auto& hc = dynamic_cast<HyperConnect&>(cs.soc().interconnect());
  ASSERT_NE(cs.recovery(), nullptr);
  ASSERT_NE(cs.hypervisor(), nullptr);

  // Watch the programmed budgets while the episode unfolds.
  std::uint32_t peak_survivor_budget = 0;
  bool saw_quarantine_budget = false;
  for (int stage = 0; stage < 60; ++stage) {
    cs.run(500);  // run() advances 500 more cycles each call
    peak_survivor_budget =
        std::max(peak_survivor_budget, hc.runtime().budgets[0]);
    if (hc.runtime().budgets[1] == 0) saw_quarantine_budget = true;
  }

  const RecoveryManager& rec = *cs.recovery();
  // The stall was detected and the port went through at least one episode.
  EXPECT_GE(rec.recoveries(), 1u);
  EXPECT_EQ(rec.escalations(), 0u);
  EXPECT_EQ(rec.conservation_violations(), 0u);
  EXPECT_EQ(rec.state(1), RecoveryState::kHealthy);
  EXPECT_TRUE(rec.all_converged());

  // Degradation really happened: the survivor held the full 24-txn window
  // while the culprit was out of service...
  EXPECT_TRUE(saw_quarantine_budget);
  EXPECT_EQ(peak_survivor_budget, 24u);
  // ...and the original split is back now that it recovered.
  EXPECT_EQ(hc.runtime().budgets[0], 16u);
  EXPECT_EQ(hc.runtime().budgets[1], 8u);
  EXPECT_TRUE(hc.runtime().coupled[1]);
  EXPECT_FALSE(hc.port_fault(1).faulted);

  // Both accelerators made progress through it all.
  EXPECT_GT(cs.ha(0).stats().bytes_read + cs.ha(0).stats().bytes_written,
            0u);
  EXPECT_GT(cs.ha(1).stats().bytes_read + cs.ha(1).stats().bytes_written,
            0u);
}

// ---------------------------------------------------------------------------
// The watchdog's overrun path through the configuration layer
// (examples/configs/watchdog_overrun.ini): a sporadic reader on port 0
// stays under [recovery] max_txns_per_poll, a flooding port 1 overruns it
// after every recouple and escalates to PermanentlyIsolated.
// ---------------------------------------------------------------------------

std::string watchdog_overrun_ini() {
  std::ifstream in(std::string(AXIHC_REPO_ROOT) +
                   "/examples/configs/watchdog_overrun.ini");
  EXPECT_TRUE(in.good());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(RecoveryClosedLoop, WatchdogOverrunEscalatesOnlyTheFloodingPort) {
  ConfiguredSystem cs(IniFile::parse(watchdog_overrun_ini()));
  cs.run();
  const auto& hc = dynamic_cast<const HyperConnect&>(cs.soc().interconnect());
  const Hypervisor& hv = *cs.hypervisor();
  const RecoveryManager& rec = *cs.recovery();

  // Port 1 overran, was recoupled max_attempts = 2 times, overran again
  // after each, and was retired for good on the second demotion.
  EXPECT_EQ(rec.state(1), RecoveryState::kPermanentlyIsolated);
  EXPECT_EQ(rec.attempts(1), 2u);
  EXPECT_EQ(rec.demotions(), 2u);
  EXPECT_EQ(rec.escalations(), 1u);
  EXPECT_FALSE(hc.runtime().coupled[1]);
  ASSERT_GE(hv.isolation_events().size(), 1u);
  for (const IsolationEvent& e : hv.isolation_events()) {
    EXPECT_EQ(e.port, 1u);
    EXPECT_GT(e.observed_txns, e.allowed_txns);
    EXPECT_EQ(e.allowed_txns, 6u);
  }
  EXPECT_TRUE(hv.fault_events().empty());

  // Port 0 was never touched, and holds the whole 32-slot window.
  EXPECT_EQ(rec.state(0), RecoveryState::kHealthy);
  for (const RecoveryTransition& t : rec.transitions()) EXPECT_EQ(t.port, 1u);
  EXPECT_TRUE(hc.runtime().coupled[0]);
  EXPECT_EQ(hc.runtime().budgets[0], 32u);
  EXPECT_EQ(hc.runtime().budgets[1], 0u);
  EXPECT_EQ(rec.conservation_violations(), 0u);
  EXPECT_TRUE(rec.all_converged());
}

TEST(RecoveryClosedLoop, UnreachedOverrunLimitIsNoLimit) {
  // A limit neither port reaches leaves every poll's outcome, and so the
  // whole run, the same as no limit at all (max_txns_per_poll = 0).
  const auto run = [](const char* limit) {
    std::string text = watchdog_overrun_ini();
    const std::string key = "max_txns_per_poll = 6";
    const std::size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos);
    text.replace(at, key.size(), std::string("max_txns_per_poll = ") + limit);
    ConfiguredSystem cs(IniFile::parse(text));
    cs.run();
    EXPECT_TRUE(cs.hypervisor()->isolation_events().empty()) << limit;
    return cs.soc().sim().state_digest();
  };
  EXPECT_EQ(run("1000"), run("0"));
}

}  // namespace
}  // namespace axihc
