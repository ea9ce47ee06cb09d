#include "ps/interrupt.hpp"

#include "common/check.hpp"

namespace axihc {

InterruptController::InterruptController(std::uint32_t num_lines)
    : raised_at_(num_lines, kNoCycle), counts_(num_lines, 0) {
  AXIHC_CHECK(num_lines >= 1);
}

void InterruptController::reset() {
  raised_at_.assign(raised_at_.size(), kNoCycle);
  counts_.assign(counts_.size(), 0);
}

void InterruptController::raise(std::uint32_t line, Cycle now) {
  AXIHC_CHECK(line < raised_at_.size());
  if (raised_at_[line] == kNoCycle) raised_at_[line] = now;
  ++counts_[line];
}

bool InterruptController::pending(std::uint32_t line) const {
  AXIHC_CHECK(line < raised_at_.size());
  return raised_at_[line] != kNoCycle;
}

Cycle InterruptController::ack(std::uint32_t line) {
  AXIHC_CHECK(line < raised_at_.size());
  const Cycle at = raised_at_[line];
  raised_at_[line] = kNoCycle;
  return at;
}

std::uint64_t InterruptController::raised_count(std::uint32_t line) const {
  AXIHC_CHECK(line < counts_.size());
  return counts_[line];
}

}  // namespace axihc
