// Hypervisor layer tests: reservation planning and programming, and the
// watchdog that detects and decouples misbehaving HAs.
#include "hypervisor/hypervisor.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "hypervisor/reservation_plan.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

TEST(ReservationPlan, SplitsCapacityByFraction) {
  const ReservationPlan plan =
      plan_bandwidth_split(1000, 20.0, {0.9, 0.1});
  EXPECT_EQ(plan.period, 1000u);
  ASSERT_EQ(plan.budgets.size(), 2u);
  EXPECT_EQ(plan.budgets[0], 45u);  // 0.9 * 50
  EXPECT_EQ(plan.budgets[1], 5u);
}

TEST(ReservationPlan, RejectsOverCommit) {
  EXPECT_THROW(plan_bandwidth_split(1000, 20.0, {0.8, 0.3}), ModelError);
  EXPECT_THROW(plan_bandwidth_split(1000, 20.0, {-0.1}), ModelError);
}

// A two-port HyperConnect with the control stack behind it. By default
// the recovery policy's backoff outlasts every test, so a decoupled port
// stays Quarantined and the watchdog's own decision is what the tests see.
struct HvFixture : ::testing::Test {
  HvFixture()
      : hc("hc", two_ports()),
        mem("ddr", hc.master_link(), store, {}),
        rm("rm", hc.control_link()),
        driver(rm, 2) {
    hc.register_with(sim);
    sim.add(mem);
    sim.add(rm);
  }

  static HyperConnectConfig two_ports() {
    HyperConnectConfig cfg;
    cfg.num_ports = 2;
    return cfg;
  }

  static RecoveryPolicy quarantine_for_good() {
    RecoveryPolicy p;
    p.backoff_base = 1'000'000;
    p.backoff_max = 1'000'000;
    return p;
  }

  Hypervisor& arm(WatchdogPolicy policy,
                  RecoveryPolicy recovery_policy = quarantine_for_good()) {
    recovery.emplace("recovery", driver, recovery_policy);
    hv.emplace("hv", driver, *recovery, policy);
    sim.add(*hv);
    sim.add(*recovery);
    return *hv;
  }

  Simulator sim;
  BackingStore store;
  HyperConnect hc;
  MemoryController mem;
  RegisterMaster rm;
  HyperConnectDriver driver;
  std::optional<RecoveryManager> recovery;
  std::optional<Hypervisor> hv;
};

TEST_F(HvFixture, ConfigureReservationProgramsHardware) {
  sim.reset();
  const ReservationPlan plan =
      plan_bandwidth_split(/*period=*/1000, /*cycles_per_txn=*/25.0,
                           {0.8, 0.2});
  driver.apply_reservation(plan.period, plan.budgets);
  ASSERT_TRUE(sim.run_until([&] { return driver.idle(); }, 10000));
  EXPECT_EQ(hc.runtime().reservation_period, 1000u);
  EXPECT_EQ(hc.runtime().budgets[0], 32u);  // 0.8 * 40
  EXPECT_EQ(hc.runtime().budgets[1], 8u);
}

TEST_F(HvFixture, WatchdogDecouplesMisbehavingHa) {
  // Ports are policed to 10 transactions per 2000-cycle poll; a greedy
  // generator on port 0 blows through that and must be auto-decoupled.
  Hypervisor& watchdog =
      arm({/*poll_period=*/2000, /*max_txns_per_poll=*/10});

  TrafficConfig greedy;
  greedy.direction = TrafficDirection::kRead;
  greedy.burst_beats = 16;
  TrafficGenerator gen("gen", hc.port_link(0), greedy);
  sim.add(gen);
  sim.reset();

  sim.run(20000);
  ASSERT_FALSE(watchdog.isolation_events().empty());
  EXPECT_EQ(watchdog.isolation_events()[0].port, 0u);
  EXPECT_GT(watchdog.isolation_events()[0].observed_txns, 10u);
  EXPECT_TRUE(watchdog.port_isolated(0));
  EXPECT_FALSE(watchdog.port_isolated(1));
  EXPECT_FALSE(hc.runtime().coupled[0]);
  EXPECT_EQ(recovery->state(0), RecoveryState::kQuarantined);

  // Once cut off, the generator makes no further progress.
  const auto completed = gen.stats().reads_completed;
  sim.run(10000);
  EXPECT_LE(gen.stats().reads_completed, completed + 1);
}

TEST_F(HvFixture, WatchdogLeavesCompliantHaAlone) {
  Hypervisor& watchdog =
      arm({/*poll_period=*/2000, /*max_txns_per_poll=*/1000});

  TrafficConfig slow;
  slow.direction = TrafficDirection::kRead;
  slow.burst_beats = 4;
  slow.gap_cycles = 100;
  TrafficGenerator gen("gen", hc.port_link(0), slow);
  sim.add(gen);
  sim.reset();

  sim.run(30000);
  EXPECT_TRUE(watchdog.isolation_events().empty());
  EXPECT_FALSE(watchdog.port_isolated(0));
  EXPECT_EQ(recovery->state(0), RecoveryState::kHealthy);
  EXPECT_GT(gen.stats().reads_completed, 0u);
}

TEST_F(HvFixture, WatchdogIsolationIsUndoneByRecovery) {
  // A 40-transaction burst overruns the 10-per-poll limit once and then
  // stops: the watchdog decouples the port, and the recovery FSM recouples
  // it after its backoff; the hypervisor's isolation ledger follows.
  RecoveryPolicy quick;
  quick.backoff_base = 1000;
  quick.backoff_max = 1000;
  quick.probation_window = 2000;
  Hypervisor& watchdog =
      arm({/*poll_period=*/2000, /*max_txns_per_poll=*/10}, quick);

  TrafficConfig burst;
  burst.direction = TrafficDirection::kRead;
  burst.burst_beats = 16;
  burst.max_transactions = 40;
  TrafficGenerator gen("gen", hc.port_link(0), burst);
  sim.add(gen);
  sim.reset();

  sim.run(3000);  // polls at 0 and 2000
  ASSERT_EQ(watchdog.isolation_events().size(), 1u);
  EXPECT_GT(watchdog.isolation_events()[0].observed_txns, 10u);
  EXPECT_TRUE(watchdog.port_isolated(0));
  EXPECT_FALSE(hc.runtime().coupled[0]);

  sim.run(10000);
  EXPECT_EQ(recovery->state(0), RecoveryState::kHealthy);
  EXPECT_EQ(recovery->recoveries(), 1u);
  EXPECT_FALSE(watchdog.port_isolated(0));
  EXPECT_TRUE(hc.runtime().coupled[0]);
  EXPECT_EQ(watchdog.isolation_events().size(), 1u);
  EXPECT_TRUE(gen.finished());
}

}  // namespace
}  // namespace axihc
