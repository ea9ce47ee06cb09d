#include "loopback_slave.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

LoopbackSlave::LoopbackSlave(std::string name, AxiLink& link)
    : Component(std::move(name)), link_(link) {}

void LoopbackSlave::reset() {
  ar_arrivals.clear();
  aw_arrivals.clear();
  w_first_beat.clear();
  w_last_beat.clear();
  r_first_push.clear();
  r_last_push.clear();
  b_pushes.clear();
  reads_.clear();
  writes_.clear();
}

void LoopbackSlave::tick(Cycle now) {
  if (link_.ar.can_pop()) {
    const AddrReq req = link_.ar.pop();
    ar_arrivals.push_back(now);
    reads_.push_back({req.id, req.beats, req.beats});
  }
  if (link_.aw.can_pop()) {
    const AddrReq req = link_.aw.pop();
    aw_arrivals.push_back(now);
    writes_.push_back({req.id, req.beats, req.beats});
  }

  // Read data: one beat per cycle, zero service latency.
  if (!reads_.empty() && link_.r.can_push()) {
    Job& job = reads_.front();
    if (job.beats_left == job.beats_total) r_first_push.push_back(now);
    --job.beats_left;
    const bool last = job.beats_left == 0;
    link_.r.push({job.id, 0xC0DE0000u + job.beats_left, last, Resp::kOkay});
    if (last) {
      r_last_push.push_back(now);
      reads_.pop_front();
    }
  }

  // Write data: consume one beat per cycle; B with the last beat.
  if (!writes_.empty() && link_.w.can_pop() && link_.b.can_push()) {
    Job& job = writes_.front();
    const WBeat beat = link_.w.pop();
    if (job.beats_left == job.beats_total) w_first_beat.push_back(now);
    AXIHC_CHECK(job.beats_left > 0);
    --job.beats_left;
    if (job.beats_left == 0) {
      AXIHC_CHECK_MSG(beat.last, name() << ": missing WLAST");
      w_last_beat.push_back(now);
      link_.b.push({job.id, Resp::kOkay});
      b_pushes.push_back(now);
      writes_.pop_front();
    } else {
      AXIHC_CHECK_MSG(!beat.last, name() << ": early WLAST");
    }
  }
}

}  // namespace axihc
