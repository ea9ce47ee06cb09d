// Kernel fast-path determinism: the activity-aware fast-forward and the
// ring-buffer channels must be invisible to every observable of a run.
//
// The main scenario is deliberately hostile to shortcuts: a DNN accelerator
// and two DMA engines contend on a 3-port HyperConnect under a bandwidth
// reservation plan (budget-exhausted ports are exactly the stretches the
// kernel fast-forwards across), with a metrics sampler and the typed event
// trace attached; a variant splices a seeded FaultInjector in front of one
// port. Each run is executed twice — fast-forward on (the default) and
// forced naive stepping — and every observable must be bit-identical: state
// digest, final cycle, per-frame/per-job completion cycles, interconnect
// counters, memory counters, sampled metric series, and the full
// trace-event stream. Further cases cover several independent subsystems
// in one Simulator sharing a trace, repeated-run digest stability, a
// closed-loop fault-recovery run, a protocol monitor spanning a long
// read latency, and the lazy catch-up through DRAM countdowns (a saturated
// audited cell, run(N) deadlines inside countdowns, refresh windows, and a
// kStallW window opening behind a blocked port), the lazy
// catch-up through one fault window of each stall kind and of delay_w, the
// age backstop's deadline across timeout rewrites and re-arms, and the
// HyperConnect's gated EXBAR grants against pinned full-scan values.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "axi/monitor.hpp"
#include "config/ini.hpp"
#include "config/system_builder.hpp"
#include "fault/fault_injector.hpp"
#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/register_file.hpp"
#include "hypervisor/reservation_plan.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "obs/latency_audit.hpp"
#include "obs/metrics.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/trace.hpp"
#include "soc/soc.hpp"

namespace axihc {
namespace {

DnnConfig small_dnn() {
  DnnConfig cfg;
  cfg.layers = googlenet_layers();
  for (auto& l : cfg.layers) {
    l.weight_bytes /= 256;
    l.ifmap_bytes /= 256;
    l.ofmap_bytes /= 256;
    l.macs /= 256;
  }
  cfg.macs_per_cycle = 256;
  cfg.burst_beats = 16;
  cfg.max_outstanding = 4;
  cfg.max_frames = 1;
  return cfg;
}

DmaConfig small_dma(Addr base) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kReadWrite;
  cfg.bytes_per_job = 64 << 10;
  cfg.read_base = base;
  cfg.write_base = base + (1u << 20);
  cfg.burst_beats = 16;
  cfg.max_outstanding = 8;
  cfg.max_jobs = 0;  // loop forever; the run_until predicate bounds it
  return cfg;
}

// Protocol-preserving faults only (probabilistic W delays plus a bounded AR
// stall window): the run must still complete, but the injector's seeded RNG
// and skid-buffer state become part of what fast-forward must preserve.
FaultScenario mild_faults(PortIndex port) {
  FaultScenario scenario;
  scenario.seed = 42;
  scenario.faults = {
      {FaultKind::kDelayW, port, 1000, 0, 3, 0.25},
      {FaultKind::kStallAr, port, 5000, 2000, 0, 1.0},
  };
  return scenario;
}

void expect_same_events(const std::vector<TraceEvent>& a,
                        const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle) << "event " << i;
    EXPECT_EQ(a[i].source, b[i].source) << "event " << i;
    EXPECT_EQ(a[i].event, b[i].event) << "event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "event " << i;
  }
}

struct RunOutcome {
  bool done = false;
  Cycle final_cycle = 0;
  std::uint64_t digest = 0;
  std::vector<Cycle> dnn_frames;
  std::vector<Cycle> dma0_jobs;
  std::vector<Cycle> dma1_jobs;
  std::vector<std::uint64_t> icn_counters;
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
  std::uint64_t mem_beats = 0;
  std::uint64_t mem_busy = 0;
  std::uint64_t recharges = 0;
  std::uint64_t w_delay_cycles = 0;
  std::uint64_t ar_stalled = 0;
  std::vector<MetricsSnapshot> samples;
  std::vector<TraceEvent> trace_events;
};

void expect_equal(const RunOutcome& a, const RunOutcome& b) {
  ASSERT_TRUE(a.done);
  ASSERT_TRUE(b.done);
  EXPECT_EQ(a.final_cycle, b.final_cycle);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.dnn_frames, b.dnn_frames);
  EXPECT_EQ(a.dma0_jobs, b.dma0_jobs);
  EXPECT_EQ(a.dma1_jobs, b.dma1_jobs);
  EXPECT_EQ(a.icn_counters, b.icn_counters);
  EXPECT_EQ(a.mem_reads, b.mem_reads);
  EXPECT_EQ(a.mem_writes, b.mem_writes);
  EXPECT_EQ(a.mem_beats, b.mem_beats);
  EXPECT_EQ(a.mem_busy, b.mem_busy);
  EXPECT_EQ(a.recharges, b.recharges);
  EXPECT_EQ(a.w_delay_cycles, b.w_delay_cycles);
  EXPECT_EQ(a.ar_stalled, b.ar_stalled);

  // Sampled metric series: same boundaries, same values at each boundary.
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].cycle, b.samples[i].cycle);
    EXPECT_EQ(a.samples[i].values, b.samples[i].values);
  }

  // Full trace-event stream, event by event.
  expect_same_events(a.trace_events, b.trace_events);
}

// With `inject_faults`, dma0 masters a private link that a FaultInjector
// forwards to port 1.
RunOutcome run_scenario(bool fast_forward, bool inject_faults = false) {
  SocConfig cfg;
  cfg.kind = InterconnectKind::kHyperConnect;
  cfg.num_ports = 3;
  const ReservationPlan plan =
      plan_bandwidth_split(2000, 27.0, {0.6, 0.3, 0.1});
  cfg.hc.num_ports = 3;
  cfg.hc.reservation_period = plan.period;
  cfg.hc.initial_budgets = plan.budgets;
  cfg.mem.row_hit_latency = 10;
  cfg.mem.row_miss_latency = 24;
  cfg.mem.turnaround = 1;
  SocSystem soc(cfg);
  soc.sim().set_fast_forward(fast_forward);

  DnnAccelerator dnn("dnn", soc.port(0), small_dnn());
  AxiLink dma0_up("dma0_up");
  std::unique_ptr<FaultInjector> inj;
  if (inject_faults) {
    dma0_up.register_with(soc.sim());
    inj = std::make_unique<FaultInjector>("inj1", dma0_up, soc.port(1),
                                          mild_faults(1), 1);
  }
  DmaEngine dma0("dma0", inject_faults ? dma0_up : soc.port(1),
                 small_dma(0x4000'0000));
  DmaEngine dma1("dma1", soc.port(2), small_dma(0x6000'0000));
  soc.add(dnn);
  soc.add(dma0);
  if (inj) soc.add(*inj);
  soc.add(dma1);

  EventTrace trace;
  trace.enable(true);
  soc.hyperconnect()->set_trace(&trace);
  soc.memory_controller().set_trace(&trace);

  MetricsRegistry registry;
  soc.hyperconnect()->register_metrics(registry);
  soc.memory_controller().register_metrics(registry);
  MetricsSampler sampler("sampler", registry, 500);
  soc.add(sampler);

  soc.sim().reset();
  RunOutcome out;
  out.done = soc.sim().run_until(
      [&] {
        return dnn.finished() && dma0.jobs_completed() >= 2 &&
               dma1.jobs_completed() >= 2;
      },
      50'000'000ull);
  out.final_cycle = soc.sim().now();
  out.digest = soc.sim().state_digest();
  out.dnn_frames = dnn.frame_completion_cycles();
  out.dma0_jobs = dma0.job_completion_cycles();
  out.dma1_jobs = dma1.job_completion_cycles();
  for (PortIndex i = 0; i < 3; ++i) {
    const PortCounters& c = soc.interconnect().counters(i);
    out.icn_counters.insert(out.icn_counters.end(),
                            {c.ar_granted, c.aw_granted, c.r_beats,
                             c.w_beats, c.b_resps});
  }
  out.mem_reads = soc.memory_controller().reads_served();
  out.mem_writes = soc.memory_controller().writes_served();
  out.mem_beats = soc.memory_controller().beats_served();
  out.mem_busy = soc.memory_controller().busy_cycles();
  out.recharges = soc.hyperconnect()->recharges();
  if (inj) {
    out.w_delay_cycles = inj->stats().w_delay_cycles;
    out.ar_stalled = inj->stats().ar_stalled;
  }
  out.samples = sampler.snapshots();
  out.trace_events = trace.events();
  return out;
}

TEST(KernelFastPath, ContendedRunIsBitIdenticalToNaiveStepping) {
  expect_equal(run_scenario(/*fast_forward=*/true),
               run_scenario(/*fast_forward=*/false));
}

TEST(KernelFastPath, FaultInjectedContendedRunIsBitIdenticalToNaiveStepping) {
  const RunOutcome fast = run_scenario(true, /*inject_faults=*/true);
  const RunOutcome naive = run_scenario(false, /*inject_faults=*/true);
  // The injector must actually fire, or the equality proves nothing.
  EXPECT_GT(fast.w_delay_cycles, 0u);
  EXPECT_GT(fast.ar_stalled, 0u);
  expect_equal(fast, naive);
}

TEST(KernelFastPath, FastForwardActuallySkipsQuiescentStretches) {
  // An empty simulator with fast-forward must reach a far deadline without
  // one step per cycle (run() would take minutes otherwise); with stepping
  // forced off the same API still works. Observable: now() only.
  Simulator sim;
  sim.reset();
  sim.run(10'000'000'000ull);
  EXPECT_EQ(sim.now(), 10'000'000'000ull);

  Simulator naive;
  naive.set_fast_forward(false);
  EXPECT_FALSE(naive.fast_forward());
  naive.reset();
  naive.run(1000);
  EXPECT_EQ(naive.now(), 1000u);
}

// ---------------------------------------------------------------------------
// Several independent HC+DDR+DMA subsystems in one Simulator, sharing one
// trace: events from every subsystem interleave in registration order.

struct MultiSubsystemSystem {
  Simulator sim;
  EventTrace trace;
  std::vector<std::unique_ptr<BackingStore>> stores;
  std::vector<std::unique_ptr<HyperConnect>> hcs;
  std::vector<std::unique_ptr<MemoryController>> mems;
  std::vector<std::unique_ptr<DmaEngine>> dmas;

  explicit MultiSubsystemSystem(std::uint32_t subsystems) {
    trace.enable(true);
    for (std::uint32_t s = 0; s < subsystems; ++s) {
      HyperConnectConfig cfg;
      cfg.num_ports = 2;
      hcs.push_back(
          std::make_unique<HyperConnect>("hc" + std::to_string(s), cfg));
      stores.push_back(std::make_unique<BackingStore>());
      mems.push_back(std::make_unique<MemoryController>(
          "ddr" + std::to_string(s), hcs.back()->master_link(),
          *stores.back(), MemoryControllerConfig{}));
      hcs.back()->register_with(sim);
      sim.add(*mems.back());
      hcs.back()->set_trace(&trace);
      mems.back()->set_trace(&trace);
      for (PortIndex p = 0; p < cfg.num_ports; ++p) {
        DmaConfig d;
        d.mode = DmaMode::kReadWrite;
        d.bytes_per_job = 16 << 10;
        d.max_jobs = 3;
        dmas.push_back(std::make_unique<DmaEngine>(
            "dma" + std::to_string(s) + "_" + std::to_string(p),
            hcs.back()->port_link(p), d));
        sim.add(*dmas.back());
      }
    }
  }

  bool run() {
    sim.reset();
    return sim.run_until(
        [&] {
          for (const auto& d : dmas) {
            if (!d->finished()) return false;
          }
          return true;
        },
        10'000'000ull);
  }
};

struct MultiSubsystemOutcome {
  bool done = false;
  Cycle final_cycle = 0;
  std::uint64_t digest = 0;
  std::vector<Cycle> job_cycles;
  std::vector<TraceEvent> trace_events;
};

MultiSubsystemOutcome run_multi_subsystem(bool fast_forward,
                                          std::uint32_t subsystems) {
  MultiSubsystemSystem system(subsystems);
  system.sim.set_fast_forward(fast_forward);
  MultiSubsystemOutcome out;
  out.done = system.run();
  out.final_cycle = system.sim.now();
  out.digest = system.sim.state_digest();
  for (const auto& d : system.dmas) {
    const auto& cycles = d->job_completion_cycles();
    out.job_cycles.insert(out.job_cycles.end(), cycles.begin(), cycles.end());
  }
  out.trace_events = system.trace.events();
  return out;
}

TEST(KernelFastPath, MultiSubsystemRunIsBitIdenticalToNaiveStepping) {
  const MultiSubsystemOutcome fast = run_multi_subsystem(true, 4);
  const MultiSubsystemOutcome naive = run_multi_subsystem(false, 4);
  ASSERT_TRUE(fast.done);
  ASSERT_TRUE(naive.done);
  EXPECT_EQ(fast.final_cycle, naive.final_cycle);
  EXPECT_EQ(fast.digest, naive.digest);
  EXPECT_EQ(fast.job_cycles, naive.job_cycles);
  expect_same_events(fast.trace_events, naive.trace_events);
}

TEST(KernelFastPath, RepeatedRunsYieldIdenticalDigests) {
  // Same configuration, same digest; advancing one run changes it.
  const MultiSubsystemOutcome a = run_multi_subsystem(true, 2);
  const MultiSubsystemOutcome b = run_multi_subsystem(true, 2);
  EXPECT_EQ(a.digest, b.digest);

  MultiSubsystemSystem longer(2);
  EXPECT_TRUE(longer.run());
  const std::uint64_t at_end = longer.sim.state_digest();
  // A DMA with max_jobs exhausted is idle, so push traffic through port 0
  // directly to perturb state.
  longer.hcs[0]->port_link(0).ar.push(AddrReq{});
  longer.sim.run(4);
  EXPECT_NE(longer.sim.state_digest(), at_end);
}

// ---------------------------------------------------------------------------
// Closed-loop recovery: a latched fault, a full quarantine -> drain -> reset
// -> probation episode, and budget redistribution, driven by the hypervisor
// poll and the RecoveryManager hooks. The digest must be stable across
// repeated runs and across fast-forward settings.

constexpr char kRecoveryScenarioIni[] = R"(
[system]
interconnect = hyperconnect
platform = zcu102
ports = 2
cycles = 25000

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

struct RecoveryOutcome {
  std::uint64_t digest = 0;
  Cycle final_cycle = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t demotions = 0;
  std::uint64_t faults_latched = 0;
  std::size_t transition_count = 0;
};

RecoveryOutcome run_recovery_scenario(bool fast_forward) {
  ConfiguredSystem cs(IniFile::parse(kRecoveryScenarioIni));
  cs.soc().sim().set_fast_forward(fast_forward);
  cs.run();
  RecoveryOutcome out;
  out.digest = cs.soc().sim().state_digest();
  out.final_cycle = cs.soc().sim().now();
  out.recoveries = cs.recovery()->recoveries();
  out.demotions = cs.recovery()->demotions();
  out.faults_latched = cs.soc().hyperconnect()->faults_latched();
  out.transition_count = cs.recovery()->transitions().size();
  return out;
}

TEST(KernelFastPath, FaultRecoveryScenarioDigestIsStable) {
  const RecoveryOutcome ref = run_recovery_scenario(true);
  // The scenario must actually exercise the loop, or the equality below
  // proves nothing.
  ASSERT_GE(ref.faults_latched, 1u);
  ASSERT_GE(ref.recoveries, 1u);
  for (const bool ff : {true, false}) {
    SCOPED_TRACE(ff ? "fast-forward" : "naive stepping");
    const RecoveryOutcome got = run_recovery_scenario(ff);
    EXPECT_EQ(ref.digest, got.digest);
    EXPECT_EQ(ref.final_cycle, got.final_cycle);
    EXPECT_EQ(ref.recoveries, got.recoveries);
    EXPECT_EQ(ref.demotions, got.demotions);
    EXPECT_EQ(ref.faults_latched, got.faults_latched);
    EXPECT_EQ(ref.transition_count, got.transition_count);
  }
}

// ---------------------------------------------------------------------------
// An AxiMonitor on the link from a DMA engine to a slow memory: it is a
// passive observer, so it must not hold the kernel to per-cycle stepping
// while a read waits out the memory latency, and the skipped stretches
// must not show in its counters or findings.

// Read-only slave with a fixed first-beat latency. It certifies its wake-up
// cycle while a read is in flight, so the stretch between AR and the first
// R beat is one the kernel can skip.
class SlowReadSlave final : public Component {
 public:
  SlowReadSlave(AxiLink& link, Cycle latency)
      : Component("slow_mem"), link_(link), latency_(latency) {}

  void tick(Cycle now) override {
    ++ticks_;
    if (beats_left_ == 0 && link_.ar.can_pop()) {
      const AddrReq req = link_.ar.pop();
      id_ = req.id;
      beats_left_ = req.beats;
      ready_ = now + latency_;
    }
    if (beats_left_ != 0 && now >= ready_ && link_.r.can_push()) {
      RBeat beat;
      beat.id = id_;
      beat.last = --beats_left_ == 0;
      link_.r.push(beat);
    }
  }

  void reset() override {
    beats_left_ = 0;
    ticks_ = 0;
  }

  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    if (beats_left_ != 0) return std::max(now, ready_);
    return link_.ar.can_pop() ? now : kNoCycle;
  }

  // Cycles actually ticked: fewer than elapsed cycles iff the kernel
  // fast-forwarded. Not architectural state, so not digested.
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  AxiLink& link_;
  Cycle latency_;
  TxnId id_ = 0;
  BeatCount beats_left_ = 0;
  Cycle ready_ = 0;
  std::uint64_t ticks_ = 0;
};

struct MonitoredReadOutcome {
  Cycle final_cycle = 0;
  std::uint64_t digest = 0;
  std::uint64_t slave_ticks = 0;
  std::vector<std::uint64_t> monitor_counters;
  std::vector<std::string> violations;
};

MonitoredReadOutcome run_monitored_read(bool fast_forward,
                                        bool monitored = true) {
  Simulator sim;
  sim.set_fast_forward(fast_forward);
  AxiLink mem_link("mem");
  std::optional<AxiMonitor> monitor;
  SlowReadSlave slave(mem_link, /*latency=*/5000);
  DmaConfig cfg;
  cfg.mode = DmaMode::kRead;
  cfg.bytes_per_job = 4 * 4 * 8;  // four 4-beat bursts, 64-bit bus
  cfg.burst_beats = 4;
  cfg.max_outstanding = 1;
  cfg.max_jobs = 1;
  DmaEngine dma("dma", mem_link, cfg);
  mem_link.register_with(sim);
  sim.add(dma);
  if (monitored) {
    monitor.emplace("mon", mem_link);
    sim.add(*monitor);
  }
  sim.add(slave);
  sim.reset();

  EXPECT_TRUE(sim.run_until([&] { return dma.finished(); }, 1'000'000));
  MonitoredReadOutcome out;
  out.final_cycle = sim.now();
  out.digest = sim.state_digest();
  out.slave_ticks = slave.ticks();
  if (monitored) {
    out.monitor_counters = {
        monitor->reads_started(),    monitor->reads_completed(),
        monitor->r_beats(),          monitor->writes_started(),
        monitor->writes_completed(), monitor->w_beats(),
        monitor->r_errors(),         monitor->b_errors()};
    out.violations = monitor->violations();
  }
  return out;
}

TEST(KernelFastPath, MonitoredLongReadLatencyIsBitIdenticalToNaiveStepping) {
  const MonitoredReadOutcome fast = run_monitored_read(true);
  const MonitoredReadOutcome naive = run_monitored_read(false);
  EXPECT_EQ(fast.final_cycle, naive.final_cycle);
  EXPECT_EQ(fast.digest, naive.digest);
  EXPECT_EQ(fast.monitor_counters, naive.monitor_counters);
  EXPECT_EQ(fast.violations, naive.violations);
  EXPECT_TRUE(fast.violations.empty());
  EXPECT_EQ(fast.monitor_counters[1], 4u);  // all four bursts completed
  EXPECT_EQ(fast.monitor_counters[2], 16u);
  // Four 5000-cycle waits dominate the run; with reads outstanding through
  // all of them the kernel must still have skipped most cycles.
  EXPECT_GT(fast.final_cycle, 20'000u);
  EXPECT_EQ(naive.slave_ticks, naive.final_cycle);
  EXPECT_LT(fast.slave_ticks, fast.final_cycle / 10);
  // Watching the link costs the slave no tick and moves nothing.
  const MonitoredReadOutcome unwatched = run_monitored_read(true, false);
  EXPECT_LE(fast.slave_ticks, unwatched.slave_ticks);
  EXPECT_EQ(fast.final_cycle, unwatched.final_cycle);
  EXPECT_EQ(fast.digest, unwatched.digest);
}

// ---------------------------------------------------------------------------
// Lazy catch-up through the in-order DDR path: the memory controller
// certifies the end of a first-word-latency or turnaround countdown, the
// HyperConnect sleeps while sub-transactions are in flight, and the kernel
// lands every deadline on a real step. Each case compares fast-forward on
// and off.

// Test-only component: always asleep, counts the ticks the kernel gives it.
// Fewer ticks than elapsed cycles means the kernel fast-forwarded.
class TickCounter final : public Component {
 public:
  TickCounter() : Component("tick_counter") {}
  void tick(Cycle now) override {
    (void)now;
    ++ticks_;
  }
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    (void)now;
    return kNoCycle;
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  std::uint64_t ticks_ = 0;
};

std::vector<std::uint64_t> memory_counters(const MemoryController& mem) {
  return {mem.reads_served(), mem.writes_served(), mem.beats_served(),
          mem.busy_cycles(),  mem.row_hits(),      mem.row_misses(),
          mem.refreshes()};
}

// Two saturating traffic generators on a 2-port HyperConnect in front of the
// in-order DDR model (the pareto1k base cell), audited and sampled (the
// samples carry every port's efifo_level gauge).
constexpr char kSaturatedIni[] = R"(
[system]
interconnect = hyperconnect
platform = zcu102
ports = 2
cycles = 60000

[hyperconnect]
nominal_burst = 16
max_outstanding = 4
reservation_period = 2000
budgets = 36 36

[ha0]
type = traffic
direction = read
burst = 16
outstanding = 8

[ha1]
type = traffic
direction = mixed
burst = 16
outstanding = 8
)";

struct SaturatedOutcome {
  Cycle final_cycle = 0;
  std::uint64_t digest = 0;
  std::uint64_t counter_ticks = 0;
  std::vector<std::uint64_t> mem;
  std::string audit_rollup;
  std::string flight;
  std::vector<MetricsSnapshot> samples;
};

SaturatedOutcome run_saturated(bool fast_forward) {
  ConfiguredSystem cs(IniFile::parse(kSaturatedIni));
  cs.soc().sim().set_fast_forward(fast_forward);
  cs.observe_config().latency_audit = true;
  cs.observe_config().metrics = true;
  TickCounter counter;
  cs.soc().add(counter);
  SaturatedOutcome out;
  out.final_cycle = cs.run();
  out.digest = cs.soc().sim().state_digest();
  out.counter_ticks = counter.ticks();
  out.mem = memory_counters(cs.soc().memory_controller());
  std::ostringstream rollup;
  cs.latency_audit()->write_rollup(rollup);
  out.audit_rollup = rollup.str();
  std::ostringstream flight;
  cs.latency_audit()->flight_recorder().write_jsonl(flight);
  out.flight = flight.str();
  out.samples = cs.sampler()->snapshots();
  return out;
}

TEST(KernelFastPath, SaturatedInOrderDdrSkipsCountdownsBitIdentically) {
  const SaturatedOutcome fast = run_saturated(true);
  const SaturatedOutcome naive = run_saturated(false);
  EXPECT_EQ(fast.final_cycle, naive.final_cycle);
  EXPECT_EQ(fast.digest, naive.digest);
  EXPECT_EQ(fast.mem, naive.mem);
  EXPECT_EQ(fast.audit_rollup, naive.audit_rollup);
  EXPECT_EQ(fast.flight, naive.flight);
  ASSERT_EQ(fast.samples.size(), naive.samples.size());
  for (std::size_t i = 0; i < fast.samples.size(); ++i) {
    EXPECT_EQ(fast.samples[i].cycle, naive.samples[i].cycle);
    EXPECT_EQ(fast.samples[i].values, naive.samples[i].values);
  }
  // The run must be saturated and audited, or the equality proves little.
  EXPECT_GT(fast.mem[2], fast.final_cycle / 2);  // beats served
  EXPECT_FALSE(fast.flight.empty());
  // DRAM latencies with sub-transactions in flight are skipped even on a
  // saturated fabric.
  EXPECT_EQ(naive.counter_ticks, naive.final_cycle);
  EXPECT_LT(fast.counter_ticks, fast.final_cycle * 85 / 100);
}

// One HA behind a HyperConnect port and the DDR model, built directly so
// the memory timing and the fault scenario can be set per case.
struct SmallSystem {
  SocSystem soc;
  AxiLink ha_link{"ha_up"};
  std::unique_ptr<FaultInjector> injector;
  DmaEngine dma;
  TickCounter counter;

  SmallSystem(const SocConfig& cfg, const DmaConfig& dma_cfg,
              const FaultScenario* faults, bool fast_forward)
      : soc(cfg),
        dma("dma", faults != nullptr ? ha_link : soc.port(0), dma_cfg) {
    soc.sim().set_fast_forward(fast_forward);
    if (faults != nullptr) {
      ha_link.register_with(soc.sim());
      injector = std::make_unique<FaultInjector>("inj0", ha_link, soc.port(0),
                                                 *faults, 0);
    }
    soc.add(dma);
    if (injector) soc.add(*injector);
    soc.add(counter);
    soc.sim().reset();
  }
};

SocConfig one_port_soc() {
  SocConfig cfg;
  cfg.kind = InterconnectKind::kHyperConnect;
  cfg.num_ports = 1;
  cfg.hc.num_ports = 1;
  cfg.mem.row_hit_latency = 20;
  cfg.mem.row_miss_latency = 40;
  cfg.mem.turnaround = 3;
  return cfg;
}

DmaConfig one_at_a_time_dma() {
  DmaConfig cfg;
  cfg.mode = DmaMode::kReadWrite;
  cfg.bytes_per_job = 8 << 10;
  cfg.burst_beats = 8;
  cfg.max_outstanding = 1;
  cfg.max_jobs = 0;
  return cfg;
}

TEST(KernelFastPath, EveryRunDeadlineCatchesUpPendingCountdowns) {
  // Deadlines of run(1), run(2), ... land at every offset inside the DRAM
  // countdowns; each run() must return with the skipped stretch applied.
  SmallSystem fast(one_port_soc(), one_at_a_time_dma(), nullptr, true);
  SmallSystem naive(one_port_soc(), one_at_a_time_dma(), nullptr, false);
  for (Cycle n = 1; n <= 120; ++n) {
    fast.soc.sim().run(n);
    naive.soc.sim().run(n);
    ASSERT_EQ(fast.soc.sim().now(), naive.soc.sim().now());
    ASSERT_EQ(fast.soc.sim().state_digest(), naive.soc.sim().state_digest())
        << "after run(" << n << ") at cycle " << fast.soc.sim().now();
  }
  EXPECT_GT(fast.soc.memory_controller().reads_served(), 10u);
  EXPECT_LT(fast.counter.ticks(), naive.counter.ticks());
}

TEST(KernelFastPath, RefreshWindowsInsideCountdownsAreBitIdentical) {
  // Short refresh periods, coprime with each other and with the DRAM
  // latencies, so windows keep opening while a command is in its
  // first-word latency or turnaround.
  const struct {
    Cycle period;
    Cycle duration;
  } windows[] = {{97, 7}, {61, 5}};
  for (const auto& w : windows) {
    SCOPED_TRACE(::testing::Message() << "refresh " << w.period << "/"
                                      << w.duration);
    SocConfig cfg = one_port_soc();
    cfg.mem.refresh_period = w.period;
    cfg.mem.refresh_duration = w.duration;
    DmaConfig dma_cfg = one_at_a_time_dma();
    dma_cfg.max_jobs = 2;
    SmallSystem fast(cfg, dma_cfg, nullptr, true);
    SmallSystem naive(cfg, dma_cfg, nullptr, false);
    const auto done_fast = [&] { return fast.dma.finished(); };
    const auto done_naive = [&] { return naive.dma.finished(); };
    ASSERT_TRUE(fast.soc.sim().run_until(done_fast, 1'000'000));
    ASSERT_TRUE(naive.soc.sim().run_until(done_naive, 1'000'000));
    EXPECT_EQ(fast.soc.sim().now(), naive.soc.sim().now());
    EXPECT_EQ(fast.soc.sim().state_digest(), naive.soc.sim().state_digest());
    EXPECT_EQ(memory_counters(fast.soc.memory_controller()),
              memory_counters(naive.soc.memory_controller()));
    EXPECT_EQ(fast.dma.job_completion_cycles(),
              naive.dma.job_completion_cycles());
    EXPECT_GT(fast.soc.memory_controller().refreshes(), 10u);
    EXPECT_LT(fast.counter.ticks(), naive.counter.ticks());
  }
}

TEST(KernelFastPath, StallWWindowOpeningBehindBlockedAwIsBitIdentical) {
  // A zero reservation budget blocks the port: its AW queue fills, the
  // injector cannot forward the next AW, and that burst's W beats wait at
  // the injector while the kernel sleeps toward the next recharge. A
  // kStallW window opens in the middle of that sleep; every cycle of it
  // counts a stalled W beat.
  SocConfig cfg = one_port_soc();
  cfg.hc.reservation_period = 5000;
  cfg.hc.initial_budgets = {0};
  DmaConfig dma_cfg;
  dma_cfg.mode = DmaMode::kWrite;
  dma_cfg.bytes_per_job = 1 << 10;
  dma_cfg.burst_beats = 4;
  dma_cfg.max_outstanding = 8;
  dma_cfg.max_jobs = 1;
  FaultScenario faults;
  faults.seed = 7;
  faults.faults = {{FaultKind::kStallW, 0, 1500, 400, 0, 1.0}};
  SmallSystem fast(cfg, dma_cfg, &faults, true);
  SmallSystem naive(cfg, dma_cfg, &faults, false);
  fast.soc.sim().run(12'000);
  naive.soc.sim().run(12'000);
  EXPECT_EQ(fast.soc.sim().state_digest(), naive.soc.sim().state_digest());
  const FaultInjectorStats& a = fast.injector->stats();
  const FaultInjectorStats& b = naive.injector->stats();
  EXPECT_EQ(a.w_stalled, b.w_stalled);
  EXPECT_EQ(a.aw_stalled, b.aw_stalled);
  EXPECT_EQ(naive.injector->stats().w_stalled, 400u);
  EXPECT_LT(fast.counter.ticks(), naive.counter.ticks() / 2);
}

// ---------------------------------------------------------------------------
// Lazy catch-up through fault stall windows: while a stall fault holds a
// path, the protection unit's stall counter, the injector's stall counter
// (or its delay_w hold) and the DDR's busy counter only grow, so the
// kernel skips the window and each component adds the skipped cycles at
// its next tick. One DMA behind one port (reading for the AR and R
// windows, writing for the others), one fault window, audited; every case
// runs with fast-forward on and off, with the protection timeout off and
// on. Protected, the W, R and B windows latch their stall fault, and the
// delay_w window holds W long enough for the age backstop to fire.

constexpr Cycle kWindowStart = 3000;
constexpr Cycle kWindowCycles = 4000;
constexpr Cycle kStallRunCycles = 12000;

std::string stall_case_ini(const std::string& kind, Cycle prot_timeout) {
  std::ostringstream ini;
  ini << "[system]\ninterconnect = hyperconnect\nplatform = zcu102\n"
         "ports = 1\nfault_seed = 3\n"
         "[hyperconnect]\nnominal_burst = 16\nmax_outstanding = 4\n"
         "prot_timeout = "
      << prot_timeout
      << "\n[ha0]\ntype = dma\nmode = "
      << (kind == "stall_ar" || kind == "stall_r" ? "read" : "write")
      << "\nbytes_per_job = 16384\n"
         "burst = 16\n"
         "[fault0]\nkind = "
      << kind << "\nport = 0\nstart = " << kWindowStart
      << "\nduration = " << kWindowCycles << "\n";
  if (kind == "delay_w") ini << "param = 40\nprobability = 0.5\n";
  return ini.str();
}

struct StallCaseOutcome {
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> fault;     // cause, count, last_cycle
  std::vector<std::uint64_t> injector;  // every FaultInjectorStats counter
  std::uint64_t mem_busy = 0;
  std::string flight;
  std::uint64_t window_ticks = 0;  // TickCounter ticks inside the window
};

StallCaseOutcome run_stall_case(const std::string& kind, Cycle prot_timeout,
                                bool fast_forward) {
  ConfiguredSystem cs(IniFile::parse(stall_case_ini(kind, prot_timeout)));
  cs.soc().sim().set_fast_forward(fast_forward);
  cs.observe_config().latency_audit = true;
  TickCounter counter;
  cs.soc().add(counter);
  cs.run(kWindowStart);
  const std::uint64_t before = counter.ticks();
  cs.run(kWindowCycles);
  StallCaseOutcome out;
  out.window_ticks = counter.ticks() - before;
  cs.run(kStallRunCycles - kWindowStart - kWindowCycles);
  out.digest = cs.soc().sim().state_digest();
  const PortFault& f = cs.soc().hyperconnect()->port_fault(0);
  out.fault = {static_cast<std::uint64_t>(f.cause), f.count, f.last_cycle};
  const FaultInjectorStats& st = cs.injector(0).stats();
  out.injector = {st.ar_stalled,       st.aw_stalled,     st.w_stalled,
                  st.r_stalled,        st.b_stalled,      st.w_dropped,
                  st.w_delay_cycles,   st.bursts_truncated,
                  st.lens_corrupted};
  out.mem_busy = cs.soc().memory_controller().busy_cycles();
  std::ostringstream flight;
  cs.latency_audit()->flight_recorder().write_jsonl(flight);
  out.flight = flight.str();
  return out;
}

struct StallCase {
  const char* kind;
  std::size_t counter;  // index into StallCaseOutcome::injector
  Cycle prot_timeout;
  FaultCause latches;  // the fault the window latches, if any
};

class StallWindowCatchUp : public ::testing::TestWithParam<StallCase> {};

TEST_P(StallWindowCatchUp, IsBitIdenticalAndSkipsTheWindow) {
  const StallCase& c = GetParam();
  const StallCaseOutcome fast = run_stall_case(c.kind, c.prot_timeout, true);
  const StallCaseOutcome naive =
      run_stall_case(c.kind, c.prot_timeout, false);
  EXPECT_EQ(fast.digest, naive.digest);
  EXPECT_EQ(fast.fault, naive.fault);
  EXPECT_EQ(fast.injector, naive.injector);
  EXPECT_EQ(fast.mem_busy, naive.mem_busy);
  EXPECT_EQ(fast.flight, naive.flight);
  // The window must actually stall (or delay) the port, and the audit must
  // record transactions, or the equalities prove little.
  EXPECT_GT(naive.injector[c.counter], kWindowCycles / 4);
  EXPECT_FALSE(fast.flight.empty());
  EXPECT_EQ(naive.fault[0], static_cast<std::uint64_t>(c.latches));
  EXPECT_EQ(naive.fault[1], c.latches == FaultCause::kNone ? 0u : 1u);
  EXPECT_EQ(naive.window_ticks, kWindowCycles);
  EXPECT_LT(fast.window_ticks, kWindowCycles / 2);
}

std::string stall_case_name(const ::testing::TestParamInfo<StallCase>& info) {
  return std::string(info.param.kind) +
         (info.param.prot_timeout == 0 ? "_unprotected" : "_protected");
}

INSTANTIATE_TEST_SUITE_P(
    EveryStallKind, StallWindowCatchUp,
    ::testing::Values(
        StallCase{"stall_ar", 0, 0, FaultCause::kNone},
        StallCase{"stall_ar", 0, 1000, FaultCause::kNone},
        StallCase{"stall_aw", 1, 0, FaultCause::kNone},
        StallCase{"stall_aw", 1, 1000, FaultCause::kNone},
        StallCase{"stall_w", 2, 0, FaultCause::kNone},
        StallCase{"stall_w", 2, 1000, FaultCause::kWriteStall},
        StallCase{"stall_r", 3, 0, FaultCause::kNone},
        StallCase{"stall_r", 3, 1000, FaultCause::kReadStall},
        StallCase{"stall_b", 4, 0, FaultCause::kNone},
        StallCase{"stall_b", 4, 1000, FaultCause::kRespStall},
        StallCase{"delay_w", 6, 0, FaultCause::kNone},
        StallCase{"delay_w", 6, 1000, FaultCause::kTimeout}),
    stall_case_name);

TEST(KernelFastPath, StallWWindowInsideADelayWHoldIsBitIdentical) {
  // The first W beat of the delay_w window is held for 500 cycles; a kStallW
  // window opens 200 cycles into the hold and freezes it for 100. The
  // hold's certificate must stop at the stall window.
  DmaConfig dma_cfg;
  dma_cfg.mode = DmaMode::kWrite;
  dma_cfg.bytes_per_job = 64 << 10;
  dma_cfg.burst_beats = 16;
  dma_cfg.max_outstanding = 4;
  dma_cfg.max_jobs = 0;
  FaultScenario faults;
  faults.seed = 5;
  faults.faults = {{FaultKind::kDelayW, 0, 2000, 600, 500, 1.0},
                   {FaultKind::kStallW, 0, 2200, 100, 0, 1.0}};
  SmallSystem fast(one_port_soc(), dma_cfg, &faults, true);
  SmallSystem naive(one_port_soc(), dma_cfg, &faults, false);
  fast.soc.sim().run(2000);
  naive.soc.sim().run(2000);
  const std::uint64_t before = fast.counter.ticks();
  fast.soc.sim().run(700);  // the hold and the stall inside it
  naive.soc.sim().run(700);
  EXPECT_LT(fast.counter.ticks() - before, 700u / 2);
  fast.soc.sim().run(1300);
  naive.soc.sim().run(1300);
  EXPECT_EQ(fast.soc.sim().state_digest(), naive.soc.sim().state_digest());
  const FaultInjectorStats& a = fast.injector->stats();
  const FaultInjectorStats& b = naive.injector->stats();
  EXPECT_EQ(a.w_stalled, b.w_stalled);
  EXPECT_EQ(a.w_delay_cycles, b.w_delay_cycles);
  EXPECT_EQ(b.w_stalled, 100u);
  EXPECT_GE(b.w_delay_cycles, 500u);
}

// ---------------------------------------------------------------------------
// The age backstop's deadline. A refresh window freezes the DDR for the
// whole run, so one read pushed into port 0 at reset stays in flight and
// ages; port 1 stays idle. A fault must latch on the first cycle the
// record is 2 * PROT_TIMEOUT old (counted from its issue, or from the
// re-arm that restamped it), however the timeout was rewritten in between,
// and with fast-forward on or off. The expected cycles follow from that
// definition; the pinned digests are the ones the per-cycle age scan gave.

struct AgeRun {
  SocSystem soc;

  AgeRun(Cycle prot_timeout, bool fast_forward) : soc(age_soc(prot_timeout)) {
    soc.sim().set_fast_forward(fast_forward);
    soc.sim().reset();
    AddrReq req;
    req.addr = 0x4000'0000;
    req.beats = 4;
    soc.port(0).ar.push(req);
  }

  static SocConfig age_soc(Cycle prot_timeout) {
    SocConfig cfg;
    cfg.kind = InterconnectKind::kHyperConnect;
    cfg.num_ports = 2;
    cfg.hc.num_ports = 2;
    cfg.hc.prot_timeout = prot_timeout;
    cfg.mem.refresh_period = 1'000'000;
    cfg.mem.refresh_duration = 500'000;
    return cfg;
  }

  void run_to(Cycle cycle) { soc.sim().run(cycle - soc.sim().now()); }
  HcRegisterFile& regs() { return soc.hyperconnect()->registers_backdoor(); }
  const PortFault& fault() { return soc.hyperconnect()->port_fault(0); }
  Cycle issued() { return *soc.hyperconnect()->protection(0).oldest_issue(); }
  void rearm() { regs().write(hcregs::fault_status(0), 1); }
};

TEST(KernelFastPath, AgeDeadlineFollowsTimeoutRewrites) {
  std::vector<std::uint64_t> digests;
  for (const bool ff : {true, false}) {
    SCOPED_TRACE(ff ? "fast-forward" : "naive stepping");
    AgeRun run(3000, ff);
    run.run_to(1000);
    const Cycle issued = run.issued();
    // Lowered while the record is in flight: the deadline moves earlier.
    run.regs().write(hcregs::kProtTimeout, 1000);
    run.run_to(4000);
    EXPECT_EQ(run.fault().count, 1u);
    EXPECT_EQ(run.fault().last_cycle, issued + 2 * 1000);
    // Raised at the re-arm.
    run.rearm();
    run.regs().write(hcregs::kProtTimeout, 2500);
    run.run_to(10000);
    EXPECT_EQ(run.fault().count, 2u);
    EXPECT_EQ(run.fault().last_cycle, 4000u + 2 * 2500);
    // Lowered at the re-arm, then raised before that deadline.
    run.rearm();
    run.regs().write(hcregs::kProtTimeout, 500);
    run.run_to(10500);
    EXPECT_EQ(run.fault().count, 2u);
    run.regs().write(hcregs::kProtTimeout, 1500);
    run.run_to(15000);
    EXPECT_EQ(run.fault().count, 3u);
    EXPECT_EQ(run.fault().last_cycle, 10000u + 2 * 1500);
    EXPECT_EQ(run.fault().cause, FaultCause::kTimeout);
    digests.push_back(run.soc.sim().state_digest());
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], 0xc0970570f4d2428au);
}

TEST(KernelFastPath, AgeDeadlineCoversAPortReArmedAlone) {
  // The timeout stays put, so only the re-arm's restamp can move the
  // deadline: with nothing else in flight there is no other to fall back on.
  std::vector<std::uint64_t> digests;
  for (const bool ff : {true, false}) {
    SCOPED_TRACE(ff ? "fast-forward" : "naive stepping");
    AgeRun run(1000, ff);
    run.run_to(1000);
    const Cycle issued = run.issued();
    run.run_to(5000);
    EXPECT_EQ(run.fault().count, 1u);
    EXPECT_EQ(run.fault().last_cycle, issued + 2 * 1000);
    run.rearm();
    run.run_to(9000);
    EXPECT_EQ(run.fault().count, 2u);
    EXPECT_EQ(run.fault().last_cycle, 5000u + 2 * 1000);
    digests.push_back(run.soc.sim().state_digest());
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], 0x86c54b53c7650c6bu);
}

// ---------------------------------------------------------------------------
// EXBAR grant gating: the HyperConnect skips a direction's grant scan while
// its count of sub-requests held in the TS output stages is zero. Four ports
// mix reads and writes; port 2 is decoupled, drained and recoupled mid-run,
// and a kStallW window on port 3 latches a write-stall fault. The digest,
// the per-port grant counts and the audited flight records are pinned to
// the values of the ungated scan (a miscounted direction stops granting or
// grants late, and every pin moves).

struct GatedGrantOutcome {
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> grants;  // ar_granted, aw_granted per port
  std::uint64_t flight_digest = 0;
  std::uint64_t faults = 0;
};

GatedGrantOutcome run_gated_grants(bool fast_forward) {
  SocConfig cfg;
  cfg.kind = InterconnectKind::kHyperConnect;
  cfg.num_ports = 4;
  cfg.hc.num_ports = 4;
  cfg.hc.nominal_burst = 8;
  cfg.hc.reservation_period = 1000;
  cfg.hc.initial_budgets = {40, 30, 20, 20};
  cfg.hc.prot_timeout = 1000;
  SocSystem soc(cfg);
  soc.sim().set_fast_forward(fast_forward);

  TrafficConfig reads;
  reads.direction = TrafficDirection::kRead;
  TrafficConfig mixed;
  mixed.direction = TrafficDirection::kMixed;
  mixed.base = 0x4400'0000;
  TrafficConfig writes;
  writes.direction = TrafficDirection::kWrite;
  writes.base = 0x4c00'0000;
  TrafficGenerator t0("t0", soc.port(0), reads);
  TrafficGenerator t1("t1", soc.port(1), mixed);
  DmaEngine dma2("dma2", soc.port(2), small_dma(0x5000'0000));
  AxiLink t3_up("t3_up");
  t3_up.register_with(soc.sim());
  FaultScenario faults;
  faults.seed = 11;
  faults.faults = {{FaultKind::kStallW, 3, 6000, 3000, 0, 1.0}};
  FaultInjector inj("inj3", t3_up, soc.port(3), faults, 3);
  TrafficGenerator t3("t3", t3_up, writes);
  soc.add(t0);
  soc.add(t1);
  soc.add(dma2);
  soc.add(inj);
  soc.add(t3);

  LatencyAudit audit(4, 8192);
  audit.set_enabled(true);
  soc.hyperconnect()->set_latency_audit(&audit);
  soc.memory_controller().set_latency_audit(&audit);
  t0.set_latency_audit(&audit, 0);
  t1.set_latency_audit(&audit, 1);
  dma2.set_latency_audit(&audit, 2);
  t3.set_latency_audit(&audit, 3);

  soc.sim().reset();
  soc.sim().run(4000);
  // Decouple port 2, let its in-flight sub-transactions drain, replace the
  // HA (reset) and recouple.
  HcRegisterFile& regs = soc.hyperconnect()->registers_backdoor();
  regs.write(hcregs::port_ctrl(2), 0);
  soc.sim().run(3000);
  EXPECT_EQ(regs.read(hcregs::inflight(2)), 0u);
  dma2.reset();
  regs.write(hcregs::port_ctrl(2), 1);
  soc.sim().run(13000);

  GatedGrantOutcome out;
  out.digest = soc.sim().state_digest();
  for (PortIndex i = 0; i < 4; ++i) {
    const PortCounters& c = soc.interconnect().counters(i);
    out.grants.push_back(c.ar_granted);
    out.grants.push_back(c.aw_granted);
  }
  std::ostringstream flight;
  audit.flight_recorder().write_jsonl(flight);
  StateDigest d;
  d.mix(flight.str());
  out.flight_digest = d.value();
  out.faults = soc.hyperconnect()->faults_latched();
  return out;
}

TEST(KernelFastPath, GatedExbarGrantsMatchTheFullScan) {
  const GatedGrantOutcome fast = run_gated_grants(true);
  const GatedGrantOutcome naive = run_gated_grants(false);
  EXPECT_EQ(fast.digest, naive.digest);
  EXPECT_EQ(fast.grants, naive.grants);
  EXPECT_EQ(fast.flight_digest, naive.flight_digest);
  // The stall window must latch its fault, or the case misses the
  // faulted-port grants it is meant to cover.
  EXPECT_EQ(fast.faults, 1u);
  EXPECT_EQ(fast.digest, 0xdccc6cf835a332fau);
  EXPECT_EQ(fast.grants, (std::vector<std::uint64_t>{143, 0, 143, 142, 123,
                                                      122, 0, 46}));
  EXPECT_EQ(fast.flight_digest, 0x0768c56277124347u);
}

}  // namespace
}  // namespace axihc
