// Execution domains of the mixed-criticality framework (§IV).
//
// Each application comprises a software system running on the PS inside a
// hypervisor domain plus a set of hardware accelerators on the FPGA fabric.
// The hypervisor grants each domain access to its own HAs only and
// supervises the bus traffic of all of them through the HyperConnect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace axihc {

enum class Criticality { kLow, kMedium, kHigh };

struct Domain {
  std::string name;
  Criticality criticality = Criticality::kLow;
  /// HyperConnect input ports owned by this domain's HAs.
  std::vector<PortIndex> ports;
  /// Bus-bandwidth fraction the integrator assigned to this domain
  /// (0..1; the hypervisor turns it into reservation budgets).
  double bandwidth_fraction = 0.0;
};

[[nodiscard]] const char* to_string(Criticality c);

/// A reservation plan: the period T and the per-port budgets programmed
/// into the HyperConnect.
struct ReservationPlan {
  Cycle period = 0;
  std::vector<std::uint32_t> budgets;
};

/// Turns per-port bandwidth fractions into a reservation plan.
///
/// `cycles_per_txn` is the memory-side service time of one nominal-burst
/// transaction (measure it or estimate first-word latency + beats +
/// turnaround); the plan hands each port floor(fraction * period /
/// cycles_per_txn) transactions per window. Fractions must sum to <= 1.
[[nodiscard]] ReservationPlan plan_bandwidth_split(
    Cycle period, double cycles_per_txn,
    const std::vector<double>& fractions);

}  // namespace axihc
