#include "axi/monitor.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace axihc {

AxiMonitor::AxiMonitor(std::string name, AxiLink& link, bool axi3_mode)
    : Component(std::move(name)), link_(link), axi3_mode_(axi3_mode) {
  watch(this);
}

AxiMonitor::~AxiMonitor() { watch(nullptr); }

void AxiMonitor::watch(AxiMonitor* observer) {
  link_.ar.set_observer(observer);
  link_.aw.set_observer(observer);
  link_.w.set_observer(observer);
  link_.r.set_observer(observer);
  link_.b.set_observer(observer);
}

void AxiMonitor::interface_reset() {
  outstanding_reads_.clear();
  pending_w_.clear();
  awaiting_b_.clear();
  early_w_.clear();
}

void AxiMonitor::reset() {
  interface_reset();
  violations_.clear();
  raised_ = 0;
  reads_started_ = reads_completed_ = writes_started_ = writes_completed_ = 0;
  r_beats_ = w_beats_ = r_errors_ = b_errors_ = 0;
}

void AxiMonitor::tick(Cycle now) {
  // Last cycle's commits are all in: an unmatched W beat had no AW.
  if (!early_w_.empty()) {
    violation(std::to_string(early_w_.size()) + " W beat(s) with no AW");
    early_w_.clear();
  }
  now_ = now;
  if (throw_on_violation_ && raised_ < violations_.size()) {
    throw ModelError(violations_[raised_++]);
  }
}

void AxiMonitor::violation(const std::string& what) {
  violations_.push_back(name() + " @" + std::to_string(now_) + ": " + what);
  AXIHC_LOG_WARN() << violations_.back();
}

bool AxiMonitor::check_addr_req(const AddrReq& req, const char* channel) {
  const BeatCount max_beats =
      axi3_mode_ ? kMaxAxi3BurstBeats : kMaxAxi4BurstBeats;
  if (req.beats == 0 || req.beats > max_beats) {
    violation(std::string(channel) + " burst length " +
              std::to_string(req.beats) + " outside 1.." +
              std::to_string(max_beats));
  }
  if (req.burst == BurstType::kWrap) {
    const bool legal = req.beats == 2 || req.beats == 4 || req.beats == 8 ||
                       req.beats == 16;
    if (!legal) {
      violation(std::string(channel) + " WRAP burst length must be 2/4/8/16");
    }
  }
  if (crosses_4k(req)) {
    violation(std::string(channel) + " INCR burst crosses 4KiB boundary");
  }
  return req.beats != 0 && req.beats <= kMaxAxi4BurstBeats;
}

void AxiMonitor::on_commit(const TimingChannel<AddrReq>& channel,
                           const AddrReq& req) {
  const bool is_write = &channel == &link_.aw;
  if (!check_addr_req(req, is_write ? "AW" : "AR")) return;
  if (trace_sink_) {
    trace_sink_->push_back({now_, is_write, req.addr, req.beats});
  }
  if (!is_write) {
    outstanding_reads_.push_back({req.id, req.beats});
    ++reads_started_;
    return;
  }
  pending_w_.push_back({req.id, req.beats});
  ++writes_started_;
  // W beats that committed before this AW within the same cycle.
  while (!early_w_.empty() && !pending_w_.empty()) {
    take_w(early_w_.front());
    early_w_.pop_front();
  }
}

void AxiMonitor::on_commit(const TimingChannel<RBeat>& /*channel*/,
                           const RBeat& beat) {
  ++r_beats_;
  if (is_error(beat.resp)) ++r_errors_;
  if (outstanding_reads_.empty()) {
    violation("R beat with no outstanding AR");
    return;
  }
  auto& head = outstanding_reads_.front();
  if (beat.id != head.id) {
    violation("R beat id " + std::to_string(beat.id) +
              " != oldest outstanding AR id " + std::to_string(head.id) +
              " (out-of-order read data)");
  }
  const bool expect_last = --head.beats_left == 0;
  if (beat.last != expect_last) {
    violation(expect_last ? "missing RLAST on final beat"
                          : "spurious RLAST mid-burst");
  }
  if (expect_last) {
    outstanding_reads_.pop_front();
    ++reads_completed_;
  }
}

void AxiMonitor::on_commit(const TimingChannel<WBeat>& /*channel*/,
                           const WBeat& beat) {
  if (pending_w_.empty()) {
    early_w_.push_back(beat);  // its AW may still commit this cycle
  } else {
    take_w(beat);
  }
}

void AxiMonitor::take_w(const WBeat& beat) {
  ++w_beats_;
  auto& head = pending_w_.front();
  const bool expect_last = --head.beats_left == 0;
  if (beat.last != expect_last) {
    violation(expect_last ? "missing WLAST on final beat"
                          : "spurious WLAST mid-burst");
  }
  if (expect_last) {
    awaiting_b_.push_back(head.id);
    pending_w_.pop_front();
  }
}

void AxiMonitor::on_commit(const TimingChannel<BResp>& /*channel*/,
                           const BResp& resp) {
  if (is_error(resp.resp)) ++b_errors_;
  if (awaiting_b_.empty()) {
    violation("B response before all W data transferred (or spurious)");
    return;
  }
  if (resp.id != awaiting_b_.front()) {
    violation("B id " + std::to_string(resp.id) +
              " != oldest completed write id " +
              std::to_string(awaiting_b_.front()) +
              " (out-of-order write response)");
  }
  awaiting_b_.pop_front();
  ++writes_completed_;
}

}  // namespace axihc
