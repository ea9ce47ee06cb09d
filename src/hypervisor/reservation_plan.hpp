// Reservation planning: turns per-port bandwidth fractions into the
// period T and per-port budgets the HyperConnect's reservation mechanism
// is programmed with.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace axihc {

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
