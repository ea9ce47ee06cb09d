// Common interface for N-master/1-slave AXI interconnects (§II
// "Multi-Master architecture"): a set of slave input ports for HAs and one
// master output port toward the FPGA-PS interface.
//
// Both the AXI HyperConnect and the SmartConnect baseline implement this
// interface, so benches and examples can swap them freely.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "axi/axi.hpp"
#include "common/ring_buffer.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"

namespace axihc {

/// Per-port traffic counters every interconnect maintains.
struct PortCounters {
  std::uint64_t ar_granted = 0;  // read (sub-)transactions sent downstream
  std::uint64_t aw_granted = 0;  // write (sub-)transactions sent downstream
  std::uint64_t r_beats = 0;
  std::uint64_t w_beats = 0;
  std::uint64_t b_resps = 0;
};

class Interconnect : public Component {
 public:
  /// An interconnect with `num_ports` HA-facing slave ports and one
  /// master port. Port links are created internally; HAs attach via
  /// `port_link(i)` and the memory side via `master_link()`.
  Interconnect(std::string name, std::uint32_t num_ports,
               AxiLinkConfig port_link_cfg, AxiLinkConfig master_link_cfg);
  ~Interconnect() override;

  [[nodiscard]] std::uint32_t num_ports() const {
    return static_cast<std::uint32_t>(port_links_.size());
  }

  /// The link a hardware accelerator's master port connects to.
  [[nodiscard]] AxiLink& port_link(PortIndex i);
  [[nodiscard]] const AxiLink& port_link(PortIndex i) const;

  /// The link connected to the FPGA-PS interface (memory controller).
  [[nodiscard]] AxiLink& master_link() { return *master_link_; }
  [[nodiscard]] const AxiLink& master_link() const { return *master_link_; }

  /// Registers every internal channel with the simulator. Subclasses extend
  /// it for their private pipeline channels.
  virtual void register_with(Simulator& sim);

  [[nodiscard]] const PortCounters& counters(PortIndex i) const;

  void append_digest(StateDigest& d) const override;

 protected:
  [[nodiscard]] PortCounters& mutable_counters(PortIndex i);

  std::vector<std::unique_ptr<AxiLink>> port_links_;
  std::unique_ptr<AxiLink> master_link_;

 private:
  std::vector<PortCounters> counters_;
};

/// Order-based response routing, shared by both interconnect models.
/// AXI R/W/B data follows the order in which address requests were granted
/// (§II: "data channels depend on address channels"); these FIFOs remember
/// that order.
struct ReadRoute {
  PortIndex port = 0;
};

struct WriteRoute {
  PortIndex port = 0;
  BeatCount beats = 0;  // W beats to pull for this (sub-)transaction
};

}  // namespace axihc
