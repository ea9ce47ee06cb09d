// Configuration of the AXI HyperConnect: synthesis-time structure
// (HyperConnectConfig) and run-time state programmable through the control
// interface (HcRuntime + the register map in hyperconnect/register_file.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "axi/axi.hpp"
#include "common/types.hpp"

namespace axihc {

/// Synthesis-time parameters (fixed when the bitstream is built).
struct HyperConnectConfig {
  std::uint32_t num_ports = 2;

  /// eFIFO queue depths for each HA-facing slave port (five queues each).
  AxiLinkConfig port_link_cfg{};
  /// eFIFO queue depths for the master port toward the FPGA-PS interface.
  AxiLinkConfig master_link_cfg{};
  /// Depths of the control-interface AXI-Lite-style link.
  AxiLinkConfig control_link_cfg{.ar_depth = 4, .aw_depth = 4, .w_depth = 4,
                                 .r_depth = 4, .b_depth = 4};

  /// Depth of the per-port TS -> EXBAR pipeline stage.
  std::size_t ts_stage_depth = 2;
  /// Depth of the EXBAR -> master-eFIFO pipeline stage.
  std::size_t xbar_stage_depth = 2;
  /// Capacity of the EXBAR routing-information memories (bounds the
  /// interconnect-wide outstanding transactions).
  std::uint32_t route_capacity = 64;

  // --- initial values of the run-time registers ------------------------
  /// Nominal burst size for transaction equalization [11], in beats.
  /// 0 disables equalization (transactions pass unsplit).
  BeatCount nominal_burst = 16;
  /// Per-port outstanding (sub-)transaction limit, per direction.
  std::uint32_t max_outstanding = 4;
  /// Bandwidth-reservation period T in cycles [10]. 0 disables reservation.
  Cycle reservation_period = 0;
  /// Per-port budgets (transactions per period). Sized/padded to num_ports.
  std::vector<std::uint32_t> initial_budgets{};
  /// Protection-unit timeout in cycles: a port whose handshake makes no
  /// progress for this long (or whose oldest sub-transaction outlives it
  /// end-to-end) is faulted — SLVERR completions are synthesized and the
  /// port is isolated. 0 disables the timeout (malformed-burst detection
  /// stays active).
  Cycle prot_timeout = 0;

  /// FUTURE-WORK EXTENSION (paper §V-A "Compatibility"): support memory
  /// subsystems that complete transactions out of order. When enabled, the
  /// TS extends every downstream ID with the source-port number
  /// (id | port << kIdPortShift) and the R/B paths route by ID instead of
  /// by grant order. HA-side IDs must stay below 2^kIdPortShift.
  bool out_of_order = false;
};

/// Bit position where the ID-extension mode inserts the port number.
inline constexpr std::uint32_t kIdPortShift = 16;

/// Why the protection unit faulted a port (FAULT_STATUS bits [3:1]).
enum class FaultCause : std::uint8_t {
  kNone = 0,
  /// The HA stopped accepting read data (RREADY held low) and its full R
  /// queue blocked the shared read path.
  kReadStall = 1,
  /// A granted sub-write starved for W data (hung W stream).
  kWriteStall = 2,
  /// The HA stopped accepting write responses (BREADY held low).
  kRespStall = 3,
  /// WLAST did not line up with the advertised burst length.
  kMalformed = 4,
  /// End-to-end sub-transaction age exceeded the timeout with no specific
  /// handshake to blame (backstop).
  kTimeout = 5,
};

/// Per-port fault latch maintained by the protection unit, exposed through
/// the FAULT_STATUS / FAULT_COUNT / FAULT_CYCLE registers.
struct PortFault {
  bool faulted = false;
  FaultCause cause = FaultCause::kNone;
  /// Faults latched since reset (read-only; survives clearing the latch).
  std::uint64_t count = 0;
  /// Cycle of the most recent fault.
  Cycle last_cycle = 0;
};

/// Run-time state, owned by the HyperConnect and mutated only through the
/// register file (i.e. by the hypervisor over the control interface).
struct HcRuntime {
  bool global_enable = true;
  BeatCount nominal_burst = 16;
  std::uint32_t max_outstanding = 4;
  Cycle reservation_period = 0;
  std::vector<std::uint32_t> budgets;  // per port
  std::vector<bool> coupled;           // per port decoupling state
  /// Protection-unit timeout in cycles (0 = timeouts off).
  Cycle prot_timeout = 0;
  /// Per-port protection-unit fault latches.
  std::vector<PortFault> fault;
  /// Synthesis-time (not register-mapped): ID-extension / out-of-order mode.
  bool out_of_order = false;
};

}  // namespace axihc
