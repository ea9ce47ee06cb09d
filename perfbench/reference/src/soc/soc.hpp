// SocSystem — convenience assembly of the platform in the paper's Figure 1:
// N hardware accelerators -> one AXI interconnect (HyperConnect or
// SmartConnect) -> FPGA-PS interface -> memory controller -> DRAM.
//
// Owns the simulator, the memory subsystem and the interconnect; callers
// construct their HAs against `port(i)` and register them with `add()`.
#pragma once

#include <cstdint>
#include <memory>

#include "hyperconnect/hyperconnect.hpp"
#include "interconnect/smartconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {

enum class InterconnectKind { kHyperConnect, kSmartConnect };

struct SocConfig {
  InterconnectKind kind = InterconnectKind::kHyperConnect;
  std::uint32_t num_ports = 2;
  HyperConnectConfig hc{};        // used when kind == kHyperConnect
  SmartConnectConfig sc{};        // used when kind == kSmartConnect
  MemoryControllerConfig mem{};
};

class SocSystem {
 public:
  explicit SocSystem(SocConfig cfg);

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] BackingStore& memory() { return store_; }
  [[nodiscard]] MemoryController& memory_controller() { return *mem_; }
  [[nodiscard]] Interconnect& interconnect() { return *icn_; }

  /// The HyperConnect instance, or nullptr when running the baseline.
  [[nodiscard]] HyperConnect* hyperconnect();

  /// The link HA number `i` connects its master port to.
  [[nodiscard]] AxiLink& port(PortIndex i) { return icn_->port_link(i); }

  /// Registers an externally-owned component (an HA, a monitor, ...).
  void add(Component& component) { sim_.add(component); }

  [[nodiscard]] const SocConfig& config() const { return cfg_; }

 private:
  SocConfig cfg_;
  Simulator sim_;
  BackingStore store_;
  std::unique_ptr<Interconnect> icn_;
  std::unique_ptr<MemoryController> mem_;
};

}  // namespace axihc
