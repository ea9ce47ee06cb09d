// Ablation: round-robin grant granularity (§V-B, EXBAR).
//
// The paper found that SmartConnect uses a VARIABLE round-robin granularity
// g, which inflates the worst-case interference on a pending request to
// g×(N−1) transactions, while the EXBAR fixes g = 1.
//
// Measurement 1 (arbitration-level): while the victim has an address
// request pending at the arbiter, count how many interferer transactions
// get granted before the victim's — the paper's interference bound,
// observed directly. Expected: ≈ g×(N−1) for the SmartConnect model, 1 for
// the EXBAR.
//
// Measurement 2 (end-to-end): the victim's worst-case read latency, which
// folds in the interconnect pipeline and memory queueing on top of the
// arbitration term.
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "interconnect/smartconnect.hpp"
#include "sim/parallel_jobs.hpp"
#include "stats/table.hpp"

namespace axihc {
namespace {

struct GranularityResult {
  std::uint64_t worst_interference_txns = 0;
  Cycle worst_read_latency = 0;
};

template <typename MakeIcn>
GranularityResult measure(MakeIcn make_icn) {
  Simulator sim;
  BackingStore store;
  auto icn = make_icn();
  MemoryController mem("ddr", icn->master_link(), store,
                       bench::bench_mem_cfg());
  icn->register_with(sim);
  sim.add(mem);

  // Victim: sparse single-beat reads, one at a time, so each request meets
  // the arbiter fresh. Interferer: saturates its port with 16-beat reads.
  TrafficConfig victim_cfg;
  victim_cfg.direction = TrafficDirection::kRead;
  victim_cfg.burst_beats = 1;
  victim_cfg.gap_cycles = 120;
  victim_cfg.max_outstanding = 1;
  victim_cfg.base = 0x4000'0000;
  TrafficGenerator victim("victim", icn->port_link(0), victim_cfg);

  TrafficConfig greedy;
  greedy.direction = TrafficDirection::kRead;
  greedy.burst_beats = 16;
  greedy.max_outstanding = 16;
  greedy.base = 0x6000'0000;
  TrafficGenerator interferer("greedy", icn->port_link(1), greedy);

  sim.add(victim);
  sim.add(interferer);
  sim.reset();

  GranularityResult res;
  bool waiting = false;
  std::uint64_t interferer_grants_at_issue = 0;
  std::uint64_t victim_grants_seen = 0;
  std::uint64_t victim_issued_seen = 0;
  for (int i = 0; i < 150000; ++i) {
    sim.step();
    const std::uint64_t issued = victim.transactions_issued();
    const std::uint64_t granted = icn->counters(0).ar_granted;
    if (!waiting && issued > victim_issued_seen) {
      // A fresh victim request is pending at (or on its way to) the
      // arbiter.
      waiting = true;
      victim_issued_seen = issued;
      interferer_grants_at_issue = icn->counters(1).ar_granted;
    }
    if (waiting && granted > victim_grants_seen) {
      victim_grants_seen = granted;
      waiting = false;
      const std::uint64_t interference =
          icn->counters(1).ar_granted - interferer_grants_at_issue;
      res.worst_interference_txns =
          std::max(res.worst_interference_txns, interference);
    }
  }
  if (victim.stats().read_latency.count() > 0) {
    res.worst_read_latency = victim.stats().read_latency.max();
  }
  return res;
}

void run() {
  std::cout << "==== Ablation: round-robin grant granularity ====\n\n";

  const std::vector<std::uint32_t> grans{1, 2, 4, 8};
  std::vector<std::function<GranularityResult()>> jobs;
  for (const std::uint32_t g : grans) {
    jobs.emplace_back([g] {
      return measure([g] {
        SmartConnectConfig cfg;
        cfg.grant_granularity = g;
        cfg.max_outstanding_reads = 8;  // bound memory queueing so the
                                        // arbitration term is visible
        return std::make_unique<SmartConnect>("sc", 2, cfg);
      });
    });
  }
  jobs.emplace_back([] {
    return measure([] {
      HyperConnectConfig cfg;
      cfg.num_ports = 2;
      cfg.route_capacity = 8;
      return std::make_unique<HyperConnect>("hc", cfg);
    });
  });
  const std::vector<GranularityResult> results =
      run_parallel_jobs(std::move(jobs));

  Table t({"arbiter", "granularity g", "paper bound g x (N-1)",
           "worst observed interference (txns)",
           "victim worst-case read latency (cyc)"});
  for (std::size_t i = 0; i < grans.size(); ++i) {
    t.add_row({"SmartConnect model", std::to_string(grans[i]),
               std::to_string(grans[i]),
               std::to_string(results[i].worst_interference_txns),
               std::to_string(results[i].worst_read_latency)});
  }
  const GranularityResult& hc = results.back();
  t.add_row({"HyperConnect (EXBAR)", "1 (fixed)", "1",
             std::to_string(hc.worst_interference_txns),
             std::to_string(hc.worst_read_latency)});
  t.print_markdown(std::cout);
  std::cout << "\nExpected shape: observed interference tracks the paper's "
               "g x (N-1) bound\n(small slack comes from the victim request "
               "being timestamped before it reaches\nthe arbiter); the "
               "EXBAR's fixed g=1 gives the tightest bound and the lowest\n"
               "worst-case latency.\n";
}

}  // namespace
}  // namespace axihc

int main() {
  axihc::run();
  return 0;
}
