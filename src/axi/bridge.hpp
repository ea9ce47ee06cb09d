// AXI register-slice bridge: forwards all five channels between two links,
// one beat per channel per cycle, adding one pipeline stage per hop.
//
// Used to compose topologies the paper's Figure 1 hints at (and real SoC
// designs use): cascading interconnects (an upstream HyperConnect feeding a
// port of a downstream one), inserting monitors, or simply closing timing
// with an extra register stage.
#pragma once

#include "axi/axi.hpp"
#include "sim/component.hpp"

namespace axihc {

class AxiBridge final : public Component {
 public:
  /// Forwards master-side traffic from `upstream` to `downstream` and
  /// responses back. Both links must have the same data width, and the
  /// downstream ID must be at least as wide as the upstream one.
  AxiBridge(std::string name, AxiLink& upstream, AxiLink& downstream);

  void tick(Cycle now) override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    if (up_.ar.can_pop() || up_.aw.can_pop() || up_.w.can_pop() ||
        down_.r.can_pop() || down_.b.can_pop()) {
      return now;
    }
    return kNoCycle;
  }

 private:
  AxiLink& up_;
  AxiLink& down_;
};

}  // namespace axihc
