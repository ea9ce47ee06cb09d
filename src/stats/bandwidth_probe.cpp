#include "stats/bandwidth_probe.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace axihc {

BandwidthProbe::BandwidthProbe(std::string name, AxiLink& link, Cycle window)
    : Component(std::move(name)), link_(link), window_(window) {
  AXIHC_CHECK(window_ > 0);
  window_end_ = window_;
}

void BandwidthProbe::register_metrics(MetricsRegistry& reg) {
  reg.add_counter(name() + ".read_bytes", &read_total_);
  reg.add_counter(name() + ".write_bytes", &write_total_);
}

void BandwidthProbe::reset() {
  last_r_pushes_ = 0;
  last_w_pushes_ = 0;
  current_read_ = current_write_ = 0;
  read_total_ = write_total_ = 0;
  window_end_ = window_;
  read_windows_.clear();
  write_windows_.clear();
}

void BandwidthProbe::tick(Cycle now) {
  while (now >= window_end_) {
    read_windows_.push_back(current_read_);
    write_windows_.push_back(current_write_);
    current_read_ = current_write_ = 0;
    window_end_ += window_;
  }
  const std::uint64_t r = link_.r.total_pushes();
  const std::uint64_t w = link_.w.total_pushes();
  const std::uint64_t dr = (r - last_r_pushes_) * kBusBytes;
  const std::uint64_t dw = (w - last_w_pushes_) * kBusBytes;
  last_r_pushes_ = r;
  last_w_pushes_ = w;
  current_read_ += dr;
  current_write_ += dw;
  read_total_ += dr;
  write_total_ += dw;
}

std::uint64_t BandwidthProbe::peak_read_window() const {
  std::uint64_t peak = current_read_;
  for (const auto v : read_windows_) peak = std::max(peak, v);
  return peak;
}

std::uint64_t BandwidthProbe::peak_write_window() const {
  std::uint64_t peak = current_write_;
  for (const auto v : write_windows_) peak = std::max(peak, v);
  return peak;
}

double BandwidthProbe::average_read_bw(double clock_hz, Cycle now) const {
  AXIHC_CHECK(now > 0);
  return static_cast<double>(read_total_) * clock_hz /
         static_cast<double>(now);
}

}  // namespace axihc
