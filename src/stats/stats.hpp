// Measurement primitives: throughput/rate meters (latency distributions
// live in obs/histogram.hpp).
// These play the role of the paper's "custom-developed timer implemented in
// the FPGA fabric" (§VI-B): cycle-exact observation without disturbing the
// traffic.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace axihc {

/// Converts (work completed, elapsed cycles) into per-second rates given the
/// fabric clock frequency. The ZCU102 designs in the paper clock the fabric
/// at 150..300 MHz; we default to 150 MHz (a common CHaiDNN configuration).
class RateMeter {
 public:
  explicit RateMeter(double clock_hz = kDefaultClockHz) : clock_hz_(clock_hz) {}

  static constexpr double kDefaultClockHz = 150e6;

  /// Completions per second for `completions` pieces of work in `cycles`.
  [[nodiscard]] double per_second(std::uint64_t completions,
                                  Cycle cycles) const;

  /// Bytes-per-second throughput.
  [[nodiscard]] double bytes_per_second(std::uint64_t bytes,
                                        Cycle cycles) const;

  /// Converts a cycle count into microseconds.
  [[nodiscard]] double to_us(Cycle cycles) const;

  [[nodiscard]] double clock_hz() const { return clock_hz_; }

 private:
  double clock_hz_;
};

}  // namespace axihc
