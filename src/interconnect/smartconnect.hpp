// Behavioural model of the Xilinx AXI SmartConnect (PG247), the
// state-of-the-art baseline the paper compares against.
//
// SmartConnect is closed-source; the paper characterizes it externally and
// this model is calibrated to exactly that characterization:
//  * round-robin arbitration that IGNORES the AXI quality-of-service
//    signals (PG247 p.6/p.8, paper §II) — the modeled payload carries none;
//  * *variable* grant granularity: once a master wins arbitration it can be
//    granted up to `grant_granularity` back-to-back transactions before the
//    pointer advances (the paper found experimentally that SmartConnect's
//    round-robin granularity varies, worsening worst-case interference to
//    g×(N−1) transactions, §V-B);
//  * deeper internal pipeline than HyperConnect: per-channel propagation
//    latencies of 12 (AR), 12 (AW), 11 (R), 3 (W), 2 (B) cycles, the values
//    measured in the paper's Fig. 3(a);
//  * no bandwidth reservation, no burst equalization, no decoupling, no
//    runtime reconfiguration.
//
// Latency bookkeeping: a master push costs 1 cycle to become visible at the
// input port and the final push costs 1 cycle to become visible at the
// output, so the internal extra delay is (target − 2).
#pragma once

#include <cstdint>
#include <deque>

#include "interconnect/interconnect.hpp"

namespace axihc {

struct SmartConnectConfig {
  /// Extra internal pipeline cycles per channel (total = extra + 2).
  Cycle ar_extra_delay = 10;  // total AR latency 12
  Cycle aw_extra_delay = 10;  // total AW latency 12
  Cycle r_extra_delay = 9;    // total R latency 11
  Cycle w_extra_delay = 1;    // total W latency 3
  Cycle b_extra_delay = 0;    // total B latency 2
  /// Maximum consecutive transactions granted to one master per round.
  std::uint32_t grant_granularity = 4;
  /// Interconnect-wide outstanding limits (route-memory capacity).
  std::uint32_t max_outstanding_reads = 32;
  std::uint32_t max_outstanding_writes = 32;
  AxiLinkConfig port_link_cfg{};
  AxiLinkConfig master_link_cfg{};
};

class SmartConnect final : public Interconnect {
 public:
  SmartConnect(std::string name, std::uint32_t num_ports,
               SmartConnectConfig cfg = {});

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  [[nodiscard]] const SmartConnectConfig& config() const { return cfg_; }

 private:
  template <typename T>
  struct Delayed {
    Cycle ready_at = 0;
    T payload{};
  };

  /// Picks the next port to grant on an address channel under
  /// variable-granularity round-robin. Returns true if a grant happened.
  bool arbitrate_addr(bool is_write, Cycle now);

  void drain_pipes(Cycle now);

  SmartConnectConfig cfg_;

  // Arbitration state.
  PortIndex rr_ar_ = 0;
  std::uint32_t ar_grants_left_ = 0;
  PortIndex rr_aw_ = 0;
  std::uint32_t aw_grants_left_ = 0;

  // Internal pipeline stages (the modelled "depth" of the closed IP).
  std::deque<Delayed<AddrReq>> ar_pipe_;
  std::deque<Delayed<AddrReq>> aw_pipe_;
  std::deque<Delayed<RBeat>> r_pipe_;
  std::deque<Delayed<WBeat>> w_pipe_;
  std::deque<Delayed<BResp>> b_pipe_;

  // Response-routing order memories.
  RingBuffer<ReadRoute> read_route_;
  RingBuffer<WriteRoute> w_pull_;   // W data pull order
  RingBuffer<PortIndex> b_route_;   // B return order
};

}  // namespace axihc
