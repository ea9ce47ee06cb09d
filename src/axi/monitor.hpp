// AXI protocol monitor: an in-line checker inserted between a master-side
// link and a slave-side link (like a protocol-checker IP in an FPGA design).
// It forwards traffic unchanged at one beat per channel per cycle and
// verifies the protocol invariants this library relies on:
//
//  * burst legality: 1..256 beats (INCR), WRAP length in {2,4,8,16}, no
//    4 KiB boundary crossing for INCR bursts;
//  * in-order read data: R beats carry the id of the oldest outstanding AR,
//    RLAST exactly on the final beat of each burst;
//  * write data follows write addresses: W beat count per AW matches the
//    advertised burst length, WLAST on the final beat;
//  * one B response per write transaction, in AW order, only after all W
//    data has been transferred.
//
// Violations are recorded; optionally the monitor throws ModelError
// immediately (used by the tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "axi/axi.hpp"
#include "axi/trace_format.hpp"
#include "common/ring_buffer.hpp"
#include "sim/component.hpp"

namespace axihc {

class AxiMonitor final : public Component {
 public:
  /// Monitors traffic flowing from `upstream` (master side) to `downstream`
  /// (slave side). `axi3_mode` restricts bursts to 16 beats as in AXI3.
  AxiMonitor(std::string name, AxiLink& upstream, AxiLink& downstream,
             bool axi3_mode = false);

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    // Only traffic to forward wakes the monitor; its bookkeeping changes
    // solely on forwarded beats.
    if (up_.ar.can_pop() || up_.aw.can_pop() || up_.w.can_pop() ||
        down_.r.can_pop() || down_.b.can_pop()) {
      return now;
    }
    return kNoCycle;
  }

  /// If set, a violation throws ModelError instead of only being recorded.
  void set_throw_on_violation(bool on) { throw_on_violation_ = on; }

  /// Records every forwarded AR/AW into `sink` as a trace entry (nullptr
  /// stops recording). Replay with TracePlayer.
  void set_trace_sink(std::vector<TraceEntry>* sink) { trace_sink_ = sink; }

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool clean() const { return violations_.empty(); }

  [[nodiscard]] std::uint64_t reads_started() const { return reads_started_; }
  [[nodiscard]] std::uint64_t reads_completed() const {
    return reads_completed_;
  }
  [[nodiscard]] std::uint64_t writes_started() const {
    return writes_started_;
  }
  [[nodiscard]] std::uint64_t writes_completed() const {
    return writes_completed_;
  }
  [[nodiscard]] std::uint64_t r_beats() const { return r_beats_; }
  [[nodiscard]] std::uint64_t w_beats() const { return w_beats_; }

  /// Error responses observed (legal AXI — counted, not violations).
  [[nodiscard]] std::uint64_t r_errors() const { return r_errors_; }
  [[nodiscard]] std::uint64_t b_errors() const { return b_errors_; }

 private:
  struct OutstandingBurst {
    TxnId id = 0;
    BeatCount beats_left = 0;
  };

  void violation(Cycle now, const std::string& what);
  /// Returns false if the request is too malformed to forward downstream.
  bool check_addr_req(Cycle now, const AddrReq& req, const char* channel);

  AxiLink& up_;
  AxiLink& down_;
  std::vector<TraceEntry>* trace_sink_ = nullptr;
  bool axi3_mode_;
  bool throw_on_violation_ = false;

  RingBuffer<OutstandingBurst> outstanding_reads_{256};
  RingBuffer<OutstandingBurst> pending_w_{256};   // AWs awaiting W data
  RingBuffer<TxnId> awaiting_b_{256};             // writes with all W sent

  std::vector<std::string> violations_;
  std::uint64_t reads_started_ = 0;
  std::uint64_t reads_completed_ = 0;
  std::uint64_t writes_started_ = 0;
  std::uint64_t writes_completed_ = 0;
  std::uint64_t r_beats_ = 0;
  std::uint64_t w_beats_ = 0;
  std::uint64_t r_errors_ = 0;
  std::uint64_t b_errors_ = 0;
};

}  // namespace axihc
