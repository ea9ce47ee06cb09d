// Trace-driven AXI master: replays a recorded sequence of (cycle, R/W,
// address, beats) requests with cycle-accurate issue times (see
// axi/trace_format.hpp for the format and AxiMonitor::set_trace_sink for
// recording).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "axi/trace_format.hpp"
#include "ha/master_base.hpp"

namespace axihc {

class TracePlayer final : public AxiMasterBase {
 public:
  /// Replays `trace` (must be sorted by issue_at; verified). A request is
  /// issued at its recorded cycle, or as soon after as backpressure and the
  /// outstanding limit allow (in order).
  TracePlayer(std::string name, AxiLink& link, std::vector<TraceEntry> trace,
              std::uint32_t max_outstanding = kDefaultMaxOutstanding);

  void tick(Cycle now) override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  [[nodiscard]] std::size_t issued() const { return next_; }
  [[nodiscard]] bool finished() const {
    return next_ >= trace_.size() && idle();
  }
  /// Requests that could not be issued at their recorded cycle
  /// (backpressure slip — a measure of how contended the replay was).
  [[nodiscard]] std::uint64_t slipped() const { return slipped_; }

 private:
  void reset_master() override;

  std::vector<TraceEntry> trace_;
  std::size_t next_ = 0;
  std::uint64_t slipped_ = 0;
};

}  // namespace axihc
