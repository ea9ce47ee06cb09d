// Interrupt controller model.
//
// §II/§IV of the paper: HAs signal completion to the PS by interrupts; the
// hypervisor routes each interrupt to the domain owning the HA. This model
// is a latched-line controller: lines are raised by HaControlSlave
// instances and consumed (acknowledged) by SwTask instances. Routing policy
// (which domain may see which line) is enforced by construction — a SwTask
// is built with the line indices its domain owns.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace axihc {

class InterruptController {
 public:
  explicit InterruptController(std::uint32_t num_lines);

  void raise(std::uint32_t line, Cycle now);

  [[nodiscard]] bool pending(std::uint32_t line) const;

  /// Clears the line; returns the cycle it was raised (kNoCycle if clear).
  Cycle ack(std::uint32_t line);

  [[nodiscard]] std::uint64_t raised_count(std::uint32_t line) const;
  [[nodiscard]] std::uint32_t num_lines() const {
    return static_cast<std::uint32_t>(raised_at_.size());
  }

  void reset();

 private:
  std::vector<Cycle> raised_at_;  // kNoCycle = not pending
  std::vector<std::uint64_t> counts_;
};

}  // namespace axihc
