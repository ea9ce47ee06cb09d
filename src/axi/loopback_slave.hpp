// Instrumented zero-latency AXI slave.
//
// Serves read data and write responses with no service delay (one beat per
// cycle, B in the same cycle as the last W beat) and records the cycle of
// every channel event. With service latency out of the picture, the
// difference between a master-side push and the corresponding slave-side
// arrival is exactly the interconnect's propagation latency — this is the
// C++ twin of the paper's "custom-developed timer implemented in the FPGA
// fabric" (§VI-B) and the instrument behind Fig. 3(a).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axi/axi.hpp"
#include "sim/component.hpp"

namespace axihc {

class LoopbackSlave final : public Component {
 public:
  LoopbackSlave(std::string name, AxiLink& link);

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    if (link_.ar.can_pop() || link_.aw.can_pop() || link_.w.can_pop() ||
        !reads_.empty() || !writes_.empty()) {
      return now;
    }
    return kNoCycle;
  }

  // Arrival timestamps, one entry per event, in order.
  std::vector<Cycle> ar_arrivals;
  std::vector<Cycle> aw_arrivals;
  std::vector<Cycle> w_first_beat;  // first W beat of each burst
  std::vector<Cycle> w_last_beat;   // last W beat of each burst
  std::vector<Cycle> r_first_push;  // first R beat pushed per burst
  std::vector<Cycle> r_last_push;
  std::vector<Cycle> b_pushes;

 private:
  struct Job {
    TxnId id = 0;
    BeatCount beats_left = 0;
    BeatCount beats_total = 0;
  };

  AxiLink& link_;
  std::deque<Job> reads_;
  std::deque<Job> writes_;
};

}  // namespace axihc
