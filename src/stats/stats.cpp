#include "stats/stats.hpp"

#include <algorithm>

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

WindowCounter::WindowCounter(Cycle window_length)
    : window_length_(window_length) {
  AXIHC_CHECK(window_length_ > 0);
}

void WindowCounter::roll_to(std::uint64_t window_index) {
  while (current_window_ < window_index) {
    history_.push_back(current_count_);
    current_count_ = 0;
    ++current_window_;
  }
}

void WindowCounter::record(Cycle now) {
  roll_to(now / window_length_);
  ++current_count_;
  ++total_;
}

void WindowCounter::flush(Cycle now) {
  // Close every window that started before `now`; a window beginning
  // exactly at `now` has not elapsed and is not opened.
  roll_to(now / window_length_ + (now % window_length_ != 0 ? 1 : 0));
}

std::uint64_t WindowCounter::max_window() const {
  std::uint64_t max = current_count_;
  for (auto w : history_) max = std::max(max, w);
  return max;
}

}  // namespace axihc
