// Fault scenarios: declarative descriptions of misbehaviour to inject into
// an AXI port (see fault_injector.hpp for the component that applies them).
//
// A scenario is a seeded list of fault specs. Each spec names a fault kind,
// the port it applies to, an activation window in cycles, and an optional
// per-event probability so intermittent faults can be modelled
// reproducibly: two runs with the same scenario see the same fault pattern.
//
// The kinds cover the failure modes the HyperConnect's protection unit must
// survive (hung handshakes, lost/late write data, malformed burst lengths);
// memory-side SLVERR windows are configured on the MemoryController
// directly (MemoryControllerConfig::slverr_ranges) and appear here only as
// the "mem_slverr" spelling for config-file parsing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace axihc {

enum class FaultKind : std::uint8_t {
  kStallAr,        ///< swallow AR-channel readiness: requests pile up
  kStallAw,        ///< same for AW
  kStallW,         ///< W data stops flowing (hung write stream)
  kStallR,         ///< master stops accepting R beats (RREADY low)
  kStallB,         ///< master stops accepting B responses
  kDropW,          ///< lose W beats (each with `probability`)
  kDelayW,         ///< hold each W beat for `param` extra cycles
  kTruncateWrite,  ///< end W bursts `param` beats early (spurious WLAST)
  kCorruptLen,     ///< rewrite AWLEN/ARLEN to `param` beats
};

struct FaultSpec {
  FaultKind kind = FaultKind::kStallW;
  /// Port the fault applies to (the injector wrapping that port picks it up).
  PortIndex port = 0;
  /// First cycle the fault is active.
  Cycle start = 0;
  /// Active-window length; 0 = permanent (active forever from `start`).
  Cycle duration = 0;
  /// Kind-specific parameter: delay cycles (kDelayW), beats cut
  /// (kTruncateWrite), corrupted burst length (kCorruptLen).
  std::uint64_t param = 0;
  /// Per-event probability in [0,1]: per beat for kDropW/kDelayW, per burst
  /// for kTruncateWrite/kCorruptLen, ignored (always-on) for stalls.
  double probability = 1.0;

  [[nodiscard]] bool active_at(Cycle now) const {
    return now >= start && (duration == 0 || now < start + duration);
  }
};

struct FaultScenario {
  /// Seeds the injectors' RNGs (xor'd with the port index so per-port
  /// streams are independent but reproducible).
  std::uint64_t seed = 0;
  std::vector<FaultSpec> faults;
};

/// Parses the config-file spelling of a fault kind ("stall_w", "drop_w",
/// "delay_w", "truncate_write", "corrupt_len", ...). Returns nullopt for
/// unknown spellings — including "mem_slverr", which is not an injector
/// fault (system_builder routes it to the memory controller).
[[nodiscard]] std::optional<FaultKind> fault_kind_from_string(
    const std::string& s);

/// Human-readable name of a fault kind (logging / error messages).
[[nodiscard]] const char* fault_kind_name(FaultKind kind);

}  // namespace axihc
