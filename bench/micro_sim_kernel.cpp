// Microbenchmarks of the simulation kernel itself (google-benchmark):
// channel hop cost, simulator step cost, full 2-port HyperConnect system
// cycles/second. These guard the simulator's own performance so the
// paper-figure tests stay fast.
#include <benchmark/benchmark.h>

#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "hypervisor/reservation_plan.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "obs/latency_audit.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "soc/soc.hpp"

namespace axihc {
namespace {

void BM_ChannelPushPop(benchmark::State& state) {
  TimingChannel<AddrReq> ch("ch", 8);
  ch.commit();
  AddrReq req;
  for (auto _ : state) {
    ch.push(req);
    ch.commit();
    benchmark::DoNotOptimize(ch.pop());
    ch.commit();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChannelPushPop);

void BM_SimulatorStepEmpty(benchmark::State& state) {
  Simulator sim;
  std::vector<std::unique_ptr<TimingChannel<int>>> chans;
  for (int i = 0; i < state.range(0); ++i) {
    chans.push_back(
        std::make_unique<TimingChannel<int>>("c" + std::to_string(i), 4));
    sim.add(*chans.back());
  }
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorStepEmpty)->Arg(8)->Arg(64)->Arg(512);

void BM_HyperConnectSystemCycle(benchmark::State& state) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = static_cast<std::uint32_t>(state.range(0));
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);

  std::vector<std::unique_ptr<DmaEngine>> dmas;
  for (PortIndex p = 0; p < cfg.num_ports; ++p) {
    DmaConfig d;
    d.mode = DmaMode::kReadWrite;
    d.bytes_per_job = 1u << 20;
    dmas.push_back(std::make_unique<DmaEngine>("dma" + std::to_string(p),
                                               hc.port_link(p), d));
    sim.add(*dmas.back());
  }
  sim.reset();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HyperConnectSystemCycle)->Arg(2)->Arg(4)->Arg(8);

// Whole-system throughput at the fig5 contention workload: GoogleNet DNN
// plus a greedy 4 MB read+write DMA behind an HC-90-10 reservation. This is
// the headline "simulated cycles per wall-second" number guarded by
// BENCH_kernel.json; the throttled DMA windows and DNN compute phases are
// exactly the quiescent stretches the kernel fast path exists to skip.
void BM_Fig5ContentionSystem(benchmark::State& state) {
  // GoogleNet at 1/64 of the paper's data sizes: fig5 shapes, sized for
  // bench iterations.
  const std::uint64_t scale = 64;
  DnnConfig dnn_cfg;
  dnn_cfg.layers = googlenet_layers();
  for (DnnLayer& l : dnn_cfg.layers) {
    l.weight_bytes /= scale;
    l.ifmap_bytes /= scale;
    l.ofmap_bytes /= scale;
    l.macs /= scale;
  }
  dnn_cfg.max_frames = 1;
  DmaConfig dma_cfg;
  dma_cfg.bytes_per_job = (4ull << 20) / scale;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    SocConfig cfg;
    const ReservationPlan plan =
        plan_bandwidth_split(2000, 27.0, {0.9, 0.1});
    cfg.hc.reservation_period = plan.period;
    cfg.hc.initial_budgets = plan.budgets;
    SocSystem soc(cfg);
    DnnAccelerator dnn("chaidnn", soc.port(0), dnn_cfg);
    DmaEngine dma("ha_dma", soc.port(1), dma_cfg);
    soc.add(dnn);
    soc.add(dma);
    soc.sim().reset();
    soc.sim().run_until(
        [&] { return dnn.finished() && dma.jobs_completed() >= 2; },
        4'000'000'000ull);
    cycles += soc.sim().now();
    benchmark::DoNotOptimize(dma.jobs_completed());
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fig5ContentionSystem)->Unit(benchmark::kMillisecond);

// Observability cost pair: the same busy 2-port DMA system with no
// observability objects at all vs. with an EventTrace attached-but-disabled
// and every metric registered (but never sampled). The obs layer promises
// one branch per record site when disabled, so these two must stay within
// noise of each other (the CI smoke job asserts < 2%).
void obs_cost_system(benchmark::State& state, bool attach_idle_obs) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);
  std::vector<std::unique_ptr<DmaEngine>> dmas;
  for (PortIndex p = 0; p < cfg.num_ports; ++p) {
    DmaConfig d;
    d.mode = DmaMode::kReadWrite;
    d.bytes_per_job = 1u << 20;
    dmas.push_back(std::make_unique<DmaEngine>("dma" + std::to_string(p),
                                               hc.port_link(p), d));
    sim.add(*dmas.back());
  }
  EventTrace trace;  // default-disabled: record sites cost one branch
  MetricsRegistry registry;
  if (attach_idle_obs) {
    hc.set_trace(&trace);
    mem.set_trace(&trace);
    hc.register_metrics(registry);
    mem.register_metrics(registry);
    for (auto& d : dmas) {
      d->set_trace(&trace);
      d->register_metrics(registry);
    }
  }
  sim.reset();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_ObsOff(benchmark::State& state) { obs_cost_system(state, false); }
BENCHMARK(BM_ObsOff);

void BM_ObsIdleAttached(benchmark::State& state) {
  obs_cost_system(state, true);
}
BENCHMARK(BM_ObsIdleAttached);

// Latency-auditor cost pair, same contract as the trace/metrics pair above:
// detached (nullptr, the compiled-out-cheap default) vs attached to every
// hook site but disabled. Every hook early-returns on the enabled flag, so
// the attached-idle system must stay within noise (< 2%, CI-gated) of the
// detached one.
void audit_cost_system(benchmark::State& state, bool attach_idle_audit) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);
  std::vector<std::unique_ptr<DmaEngine>> dmas;
  for (PortIndex p = 0; p < cfg.num_ports; ++p) {
    DmaConfig d;
    d.mode = DmaMode::kReadWrite;
    d.bytes_per_job = 1u << 20;
    dmas.push_back(std::make_unique<DmaEngine>("dma" + std::to_string(p),
                                               hc.port_link(p), d));
    sim.add(*dmas.back());
  }
  LatencyAudit audit(cfg.num_ports, 1024);  // default-disabled
  if (attach_idle_audit) {
    hc.set_latency_audit(&audit);
    mem.set_latency_audit(&audit);
    for (PortIndex p = 0; p < cfg.num_ports; ++p) {
      dmas[p]->set_latency_audit(&audit, p);
    }
  }
  sim.reset();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_AuditOff(benchmark::State& state) {
  audit_cost_system(state, false);
}
BENCHMARK(BM_AuditOff);

void BM_AuditIdleAttached(benchmark::State& state) {
  audit_cost_system(state, true);
}
BENCHMARK(BM_AuditIdleAttached);

// The enabled auditor on the same system: the full audit (bound check,
// histograms, flight ring, stall classifier, stage mirrors) and the bound
// check alone (what sweep and campaign rows run). Not CI-gated (enabling it
// is an explicit opt-in); the kernel-bench CI step prints both overheads
// over BM_AuditOff, so the cost of auditing is a number, not a guess.
void audit_enabled_system(benchmark::State& state, bool provenance) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);
  std::vector<std::unique_ptr<DmaEngine>> dmas;
  for (PortIndex p = 0; p < cfg.num_ports; ++p) {
    DmaConfig d;
    d.mode = DmaMode::kReadWrite;
    d.bytes_per_job = 1u << 20;
    dmas.push_back(std::make_unique<DmaEngine>("dma" + std::to_string(p),
                                               hc.port_link(p), d));
    sim.add(*dmas.back());
  }
  LatencyAudit audit(cfg.num_ports, 1024, provenance);
  audit.set_enabled(true);
  hc.set_latency_audit(&audit);
  if (provenance) mem.set_latency_audit(&audit);
  for (PortIndex p = 0; p < cfg.num_ports; ++p) {
    dmas[p]->set_latency_audit(&audit, p);
  }
  sim.reset();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_AuditEnabled(benchmark::State& state) {
  audit_enabled_system(state, true);
}
BENCHMARK(BM_AuditEnabled);

void BM_AuditBoundsOnly(benchmark::State& state) {
  audit_enabled_system(state, false);
}
BENCHMARK(BM_AuditBoundsOnly);

void BM_DmaJobThroughHyperConnect(benchmark::State& state) {
  for (auto _ : state) {
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
    d.bytes_per_job = 64 << 10;
    d.max_jobs = 1;
    DmaEngine dma("dma", hc.port_link(0), d);
    sim.add(dma);
    sim.reset();
    sim.run_until([&] { return dma.finished(); }, 10'000'000);
    benchmark::DoNotOptimize(dma.jobs_completed());
  }
}
BENCHMARK(BM_DmaJobThroughHyperConnect)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace axihc

BENCHMARK_MAIN();
