#include "stats/stats.hpp"

#include "common/check.hpp"

namespace axihc {

double RateMeter::per_second(std::uint64_t completions, Cycle cycles) const {
  AXIHC_CHECK(cycles > 0);
  return static_cast<double>(completions) * clock_hz_ /
         static_cast<double>(cycles);
}

double RateMeter::bytes_per_second(std::uint64_t bytes, Cycle cycles) const {
  return per_second(bytes, cycles);
}

double RateMeter::to_us(Cycle cycles) const {
  return static_cast<double>(cycles) / clock_hz_ * 1e6;
}

}  // namespace axihc
