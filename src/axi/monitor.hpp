// AXI protocol monitor: a passive checker of one link, like a protocol-
// checker IP tapping a bus. It sees each beat as it becomes visible on the
// link (ChannelObserver) and never pops, pushes, repairs or drops anything,
// so attaching it moves no cycle and no state digest. It checks:
//
//  * burst legality: 1..256 beats (1..16 in AXI3 mode), WRAP length in
//    {2,4,8,16}, no 4 KiB boundary crossing for INCR bursts;
//  * in-order read data: R beats carry the id of the oldest outstanding AR,
//    RLAST exactly on the final beat of each burst;
//  * W beat count and WLAST per AW; a W beat may become visible in the same
//    cycle as its AW, not before;
//  * one B response per write transaction, in AW order, after its last W.
//
// Violations are recorded as the beats commit; optionally the monitor's
// next tick throws ModelError. It is an observer component: it never holds
// the kernel out of fast-forward and the state digest leaves it out.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "axi/axi.hpp"
#include "axi/trace_format.hpp"
#include "sim/component.hpp"

namespace axihc {

class AxiMonitor final : public Component,
                         ChannelObserver<AddrReq>,
                         ChannelObserver<RBeat>,
                         ChannelObserver<WBeat>,
                         ChannelObserver<BResp> {
 public:
  /// Watches `link`. `axi3_mode` restricts bursts to 16 beats as in AXI3.
  AxiMonitor(std::string name, AxiLink& link, bool axi3_mode = false);
  ~AxiMonitor() override;

  void tick(Cycle now) override;
  void reset() override;
  /// The master behind the link was reset: forget what was in flight.
  void interface_reset();
  [[nodiscard]] Cycle next_activity(Cycle) const override { return kNoCycle; }
  [[nodiscard]] bool observer() const override { return true; }

  /// If set, the tick after a violation throws it as ModelError.
  void set_throw_on_violation(bool on) { throw_on_violation_ = on; }

  /// Records every AR/AW into `sink`, stamped with the cycle it was pushed
  /// in (nullptr stops recording). Replay with TracePlayer.
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

  void on_commit(const TimingChannel<AddrReq>&, const AddrReq&) override;
  void on_commit(const TimingChannel<RBeat>&, const RBeat&) override;
  void on_commit(const TimingChannel<WBeat>&, const WBeat&) override;
  void on_commit(const TimingChannel<BResp>&, const BResp&) override;
  /// Attaches `observer` (nullptr: detaches) to all five link channels.
  void watch(AxiMonitor* observer);

  void violation(const std::string& what);
  /// False when AxLEN cannot encode the length: its beats go untracked.
  bool check_addr_req(const AddrReq& req, const char* channel);
  /// Counts a W beat against the oldest AW still owed data.
  void take_w(const WBeat& beat);

  AxiLink& link_;
  std::vector<TraceEntry>* trace_sink_ = nullptr;
  bool axi3_mode_;
  bool throw_on_violation_ = false;
  Cycle now_ = 0;            // the cycle whose beats are committing
  std::size_t raised_ = 0;   // violations already thrown

  std::deque<OutstandingBurst> outstanding_reads_;
  std::deque<OutstandingBurst> pending_w_;  // AWs awaiting W data
  std::deque<TxnId> awaiting_b_;            // writes with all W sent
  std::deque<WBeat> early_w_;  // W beats committed before any pending AW

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
