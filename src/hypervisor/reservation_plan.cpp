#include "hypervisor/reservation_plan.hpp"

#include <cmath>

#include "common/check.hpp"

namespace axihc {

ReservationPlan plan_bandwidth_split(Cycle period, double cycles_per_txn,
                                     const std::vector<double>& fractions) {
  AXIHC_CHECK(period > 0);
  AXIHC_CHECK(cycles_per_txn > 0);
  double total = 0;
  for (double f : fractions) {
    AXIHC_CHECK_MSG(f >= 0.0 && f <= 1.0, "fraction out of range: " << f);
    total += f;
  }
  AXIHC_CHECK_MSG(total <= 1.0 + 1e-9,
                  "bandwidth fractions sum to " << total << " > 1");

  ReservationPlan plan;
  plan.period = period;
  plan.budgets.reserve(fractions.size());
  const double txn_capacity = static_cast<double>(period) / cycles_per_txn;
  for (double f : fractions) {
    plan.budgets.push_back(
        static_cast<std::uint32_t>(std::floor(f * txn_capacity)));
  }
  return plan;
}

}  // namespace axihc
