// SW-task model (§II): the software side of an acceleration request.
//
// Runs the canonical offload loop on the PS:
//   1. program the HA: write AP_START over its control interface;
//   2. continue asynchronously until the HA's completion interrupt;
//   3. acknowledge, record the response time, optionally "think", repeat.
//
// The response time measured here is the end-to-end quantity the paper's
// case study reports per acceleration request: from the start command to
// the completion interrupt, including all bus contention the HA suffered.
#pragma once

#include <cstdint>

#include "axi/axi.hpp"
#include "ps/ha_control_slave.hpp"
#include "ps/interrupt.hpp"
#include "obs/histogram.hpp"
#include "sim/component.hpp"

namespace axihc {

struct SwTaskConfig {
  /// Interrupt line of the controlled HA.
  std::uint32_t irq_line = 0;
  /// Idle cycles between an interrupt and the next start (software work).
  Cycle think_cycles = 0;
  /// 0 = run forever; otherwise stop after this many completed requests.
  std::uint64_t max_requests = 0;
  /// Interrupt delivery latency (GIC + hypervisor routing), in cycles.
  Cycle irq_latency = 20;
};

class SwTask final : public Component {
 public:
  /// Controls the HA behind `control_link` (slave side served by a
  /// HaControlSlave) and waits on `irq`.
  SwTask(std::string name, AxiLink& control_link, InterruptController& irq,
         SwTaskConfig cfg = {});

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  [[nodiscard]] std::uint64_t requests_completed() const { return done_; }
  /// Start-to-interrupt response times; min/mean/max are exact.
  [[nodiscard]] const LogHistogram& response_times() const {
    return response_times_;
  }
  [[nodiscard]] bool finished() const {
    return cfg_.max_requests != 0 && done_ >= cfg_.max_requests;
  }

 private:
  enum class State { kThink, kStart, kAwaitStartAck, kAwaitIrq, kAckIrq };

  AxiLink& link_;
  InterruptController& irq_;
  SwTaskConfig cfg_;

  State state_ = State::kStart;
  /// First cycle the current wait (IRQ latency / think time) is over —
  /// deadline form, so waiting ticks are pure no-ops.
  Cycle resume_at_ = 0;
  Cycle request_started_ = 0;
  Cycle irq_seen_ = 0;
  TxnId next_id_ = 1;
  std::uint64_t done_ = 0;
  LogHistogram response_times_;
};

}  // namespace axihc
