#include "stats/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace axihc {

void LatencyStats::record(Cycle latency) {
  samples_.push_back(latency);
  sorted_valid_ = false;
}

const std::vector<Cycle>& LatencyStats::sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

Cycle LatencyStats::min() const {
  AXIHC_CHECK(!samples_.empty());
  if (sorted_valid_) return sorted_.front();
  return *std::min_element(samples_.begin(), samples_.end());
}

Cycle LatencyStats::max() const {
  AXIHC_CHECK(!samples_.empty());
  if (sorted_valid_) return sorted_.back();
  return *std::max_element(samples_.begin(), samples_.end());
}

double LatencyStats::mean() const {
  AXIHC_CHECK(!samples_.empty());
  double sum = 0;
  for (Cycle s : samples_) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples_.size());
}

Cycle LatencyStats::percentile(double p) const {
  AXIHC_CHECK(!samples_.empty());
  AXIHC_CHECK(p > 0 && p <= 100);
  const std::vector<Cycle>& s = sorted();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(s.size())));
  return s[rank == 0 ? 0 : rank - 1];
}

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
