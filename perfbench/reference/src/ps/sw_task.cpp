#include "ps/sw_task.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

SwTask::SwTask(std::string name, AxiLink& control_link,
               InterruptController& irq, SwTaskConfig cfg)
    : Component(std::move(name)), link_(control_link), irq_(irq), cfg_(cfg) {
  AXIHC_CHECK(cfg_.irq_line < irq.num_lines());
}

void SwTask::reset() {
  state_ = State::kStart;
  resume_at_ = 0;
  request_started_ = 0;
  irq_seen_ = 0;
  next_id_ = 1;
  done_ = 0;
  response_times_.clear();
}

void SwTask::tick(Cycle now) {
  switch (state_) {
    case State::kThink:
      if (now < resume_at_) break;
      state_ = State::kStart;
      [[fallthrough]];

    case State::kStart: {
      if (finished()) break;
      if (!link_.aw.can_push() || !link_.w.can_push()) break;
      AddrReq aw;
      aw.id = next_id_++;
      aw.addr = hactrl::kCtrl;
      aw.beats = 1;
      aw.issued_at = now;
      link_.aw.push(aw);
      link_.w.push({1 /* AP_START */, 0xff, true});
      request_started_ = now;
      state_ = State::kAwaitStartAck;
      break;
    }

    case State::kAwaitStartAck:
      if (!link_.b.can_pop()) break;
      link_.b.pop();
      state_ = State::kAwaitIrq;
      [[fallthrough]];

    case State::kAwaitIrq:
      if (!irq_.pending(cfg_.irq_line)) break;
      irq_.ack(cfg_.irq_line);
      irq_seen_ = now;
      // Model interrupt delivery latency before software observes it. The
      // countdown form burned ticks now+1..now+latency and acted on the
      // next; the deadline lands on the identical cycle.
      resume_at_ = now + cfg_.irq_latency + 1;
      state_ = State::kAckIrq;
      break;

    case State::kAckIrq:
      if (now < resume_at_) break;
      response_times_.record(now - request_started_);
      ++done_;
      resume_at_ = now + cfg_.think_cycles + 1;
      state_ = State::kThink;
      break;
  }
}

Cycle SwTask::next_activity(Cycle now) const {
  switch (state_) {
    case State::kThink:
    case State::kAckIrq:
      return now < resume_at_ ? resume_at_ : now;
    case State::kStart:
      if (finished()) return kNoCycle;
      return (link_.aw.can_push() && link_.w.can_push()) ? now : kNoCycle;
    case State::kAwaitStartAck:
      return link_.b.can_pop() ? now : kNoCycle;
    case State::kAwaitIrq:
      return irq_.pending(cfg_.irq_line) ? now : kNoCycle;
  }
  return now;
}

}  // namespace axihc
