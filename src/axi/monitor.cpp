#include "axi/monitor.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/log.hpp"

namespace axihc {

AxiMonitor::AxiMonitor(std::string name, AxiLink& upstream,
                       AxiLink& downstream, bool axi3_mode)
    : Component(std::move(name)),
      up_(upstream),
      down_(downstream),
      axi3_mode_(axi3_mode) {}

void AxiMonitor::reset() {
  outstanding_reads_.clear();
  pending_w_.clear();
  awaiting_b_.clear();
  violations_.clear();
  reads_started_ = reads_completed_ = 0;
  writes_started_ = writes_completed_ = 0;
  r_beats_ = w_beats_ = 0;
  r_errors_ = b_errors_ = 0;
}

void AxiMonitor::violation(Cycle now, const std::string& what) {
  std::ostringstream os;
  os << name() << " @" << now << ": " << what;
  violations_.push_back(os.str());
  AXIHC_LOG_WARN() << violations_.back();
  if (throw_on_violation_) throw ModelError(violations_.back());
}

bool AxiMonitor::check_addr_req(Cycle now, const AddrReq& req,
                                const char* channel) {
  bool forwardable = true;
  const BeatCount max_beats =
      axi3_mode_ ? kMaxAxi3BurstBeats : kMaxAxi4BurstBeats;
  if (req.beats == 0 || req.beats > max_beats) {
    std::ostringstream os;
    os << channel << " burst length " << req.beats << " outside 1.."
       << max_beats;
    violation(now, os.str());
    // A zero/oversized burst cannot be represented downstream: drop it
    // after flagging rather than poisoning the slave.
    forwardable = false;
  }
  if (req.burst == BurstType::kWrap) {
    const bool legal = req.beats == 2 || req.beats == 4 || req.beats == 8 ||
                       req.beats == 16;
    if (!legal) {
      violation(now, std::string(channel) + " WRAP burst length must be 2/4/8/16");
    }
  }
  if (crosses_4k(req)) {
    violation(now, std::string(channel) + " INCR burst crosses 4KiB boundary");
  }
  return forwardable;
}

void AxiMonitor::tick(Cycle now) {
  // AR: master -> slave, one request per cycle.
  if (up_.ar.can_pop() && down_.ar.can_push() && !outstanding_reads_.full()) {
    AddrReq req = up_.ar.pop();
    if (check_addr_req(now, req, "AR")) {
      outstanding_reads_.push({req.id, req.beats});
      ++reads_started_;
      if (trace_sink_) trace_sink_->push_back({now, false, req.addr, req.beats});
      down_.ar.push(req);
    }
  }

  // R: slave -> master.
  if (down_.r.can_pop() && up_.r.can_push()) {
    RBeat beat = down_.r.pop();
    ++r_beats_;
    if (is_error(beat.resp)) ++r_errors_;
    if (outstanding_reads_.empty()) {
      violation(now, "R beat with no outstanding AR");
    } else {
      auto& head = outstanding_reads_.front();
      if (beat.id != head.id) {
        std::ostringstream os;
        os << "R beat id " << beat.id << " != oldest outstanding AR id "
           << head.id << " (out-of-order read data)";
        violation(now, os.str());
      }
      AXIHC_CHECK(head.beats_left > 0);
      --head.beats_left;
      const bool expect_last = head.beats_left == 0;
      if (beat.last != expect_last) {
        violation(now, expect_last ? "missing RLAST on final beat"
                                   : "spurious RLAST mid-burst");
        beat.last = expect_last;  // repair after flagging
      }
      if (expect_last) {
        outstanding_reads_.pop();
        ++reads_completed_;
      }
    }
    up_.r.push(beat);
  }

  // AW: master -> slave.
  if (up_.aw.can_pop() && down_.aw.can_push() && !pending_w_.full()) {
    AddrReq req = up_.aw.pop();
    if (check_addr_req(now, req, "AW")) {
      pending_w_.push({req.id, req.beats});
      ++writes_started_;
      if (trace_sink_) trace_sink_->push_back({now, true, req.addr, req.beats});
      down_.aw.push(req);
    }
  }

  // W: master -> slave. This library requires AW before its W data.
  if (up_.w.can_pop() && down_.w.can_push()) {
    WBeat beat = up_.w.front();
    if (pending_w_.empty()) {
      // Leave the beat queued: it may belong to an AW still in flight
      // (pushed this cycle, visible next). Only flag if nothing shows up.
      if (up_.aw.empty()) {
        violation(now, "W beat with no pending AW and no AW in flight");
        up_.w.pop();  // drop to avoid livelock after a real violation
      }
    } else {
      up_.w.pop();
      ++w_beats_;
      auto& head = pending_w_.front();
      AXIHC_CHECK(head.beats_left > 0);
      --head.beats_left;
      const bool expect_last = head.beats_left == 0;
      if (beat.last != expect_last) {
        violation(now, expect_last ? "missing WLAST on final beat"
                                   : "spurious WLAST mid-burst");
        beat.last = expect_last;  // repair after flagging
      }
      if (expect_last) {
        if (awaiting_b_.full()) {
          violation(now, "too many writes awaiting B");
        } else {
          awaiting_b_.push(pending_w_.front().id);
        }
        pending_w_.pop();
      }
      down_.w.push(beat);
    }
  }

  // B: slave -> master.
  if (down_.b.can_pop() && up_.b.can_push()) {
    BResp resp = down_.b.pop();
    if (is_error(resp.resp)) ++b_errors_;
    if (awaiting_b_.empty()) {
      violation(now, "B response before all W data transferred (or spurious)");
    } else {
      const TxnId expected = awaiting_b_.front();
      if (resp.id != expected) {
        std::ostringstream os;
        os << "B id " << resp.id << " != oldest completed write id "
           << expected << " (out-of-order write response)";
        violation(now, os.str());
      }
      awaiting_b_.pop();
      ++writes_completed_;
    }
    up_.b.push(resp);
  }
}

}  // namespace axihc
