// Non-intrusive per-window bandwidth probe — the role the Xilinx AXI
// Performance Monitor (APM) plays in real evaluations of this kind.
//
// Observes an AxiLink's data channels through their traffic counters
// (producer-side pushes) without touching the payload stream, and
// accumulates bytes per fixed window. Because observation is purely
// counter-based, attaching a probe cannot change timing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "axi/axi.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"

namespace axihc {

class BandwidthProbe final : public Component {
 public:
  /// Watches `link`'s R and W channels with windows of `window` cycles
  /// (64-bit bus: 8 bytes per beat).
  BandwidthProbe(std::string name, AxiLink& link, Cycle window);

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    // New pushes since the last tick must be accumulated into the current
    // window. During a frozen stretch the traffic counters cannot change,
    // so only the window boundary itself needs a tick (it closes the window
    // and appends to the series — observable state).
    if (link_.r.total_pushes() != last_r_pushes_ ||
        link_.w.total_pushes() != last_w_pushes_) {
      return now;
    }
    return window_end_ > now ? window_end_ : now;
  }

  /// Closed windows so far: bytes moved per window, per direction.
  [[nodiscard]] const std::vector<std::uint64_t>& read_window_bytes() const {
    return read_windows_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& write_window_bytes() const {
    return write_windows_;
  }

  [[nodiscard]] std::uint64_t total_read_bytes() const { return read_total_; }
  [[nodiscard]] std::uint64_t total_write_bytes() const {
    return write_total_;
  }

  /// Peak single-window read/write bytes (burstiness indicator).
  [[nodiscard]] std::uint64_t peak_read_window() const;
  [[nodiscard]] std::uint64_t peak_write_window() const;

  /// Average bandwidth over everything observed so far, in bytes/second.
  [[nodiscard]] double average_read_bw(double clock_hz, Cycle now) const;

  /// Registers cumulative byte counters with `reg`. Sampled as counters,
  /// the per-sample deltas reproduce the windowed series and the final
  /// sample equals total_read_bytes()/total_write_bytes() exactly.
  void register_metrics(MetricsRegistry& reg);

  void append_digest(StateDigest& d) const override {
    d.mix(read_total_);
    d.mix(write_total_);
    d.mix(static_cast<std::uint64_t>(read_windows_.size()));
    for (std::uint64_t w : read_windows_) d.mix(w);
    for (std::uint64_t w : write_windows_) d.mix(w);
  }

 private:
  static constexpr std::uint64_t kBusBytes = 8;

  AxiLink& link_;
  Cycle window_;
  std::uint64_t last_r_pushes_ = 0;
  std::uint64_t last_w_pushes_ = 0;
  std::uint64_t current_read_ = 0;
  std::uint64_t current_write_ = 0;
  std::uint64_t read_total_ = 0;
  std::uint64_t write_total_ = 0;
  Cycle window_end_ = 0;
  std::vector<std::uint64_t> read_windows_;
  std::vector<std::uint64_t> write_windows_;
};

}  // namespace axihc
