#include "ps/ha_control_slave.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

HaControlSlave::HaControlSlave(std::string name, AxiLink& link,
                               ControllableHa& ha, InterruptController& irq,
                               std::uint32_t irq_line)
    : Component(std::move(name)),
      link_(link),
      ha_(ha),
      irq_(irq),
      irq_line_(irq_line) {
  AXIHC_CHECK(irq_line_ < irq.num_lines());
}

void HaControlSlave::reset() {
  was_busy_ = false;
  done_sticky_ = false;
  jobs_ = 0;
}

void HaControlSlave::apply_write(Addr offset, std::uint64_t value) {
  switch (offset) {
    case hactrl::kCtrl:
      if ((value & 1) != 0 && !ha_.busy()) ha_.start();
      break;
    case hactrl::kDoneClr:
      done_sticky_ = false;
      break;
    default:
      break;  // writes to RO/unknown registers are ignored
  }
}

std::uint64_t HaControlSlave::read(Addr offset) const {
  switch (offset) {
    case hactrl::kStatus: {
      std::uint64_t v = 0;
      if (ha_.busy()) v |= hactrl::kStatusBusy;
      if (done_sticky_) v |= hactrl::kStatusDone;
      return v;
    }
    case hactrl::kJobs:
      return jobs_;
    default:
      return 0;
  }
}

void HaControlSlave::tick(Cycle now) {
  // Completion edge: busy -> idle.
  const bool busy = ha_.busy();
  if (was_busy_ && !busy) {
    done_sticky_ = true;
    ++jobs_;
    irq_.raise(irq_line_, now);
  }
  was_busy_ = busy;

  // Register write: AW + single W -> B.
  if (link_.aw.can_pop() && link_.w.can_pop() && link_.b.can_push()) {
    const AddrReq aw = link_.aw.pop();
    AXIHC_CHECK_MSG(aw.beats == 1,
                    name() << ": HA control writes must be single-beat");
    const WBeat wb = link_.w.pop();
    AXIHC_CHECK(wb.last);
    apply_write(aw.addr, wb.data);
    link_.b.push({aw.id, Resp::kOkay});
  }
  // Register read: AR -> single R.
  if (link_.ar.can_pop() && link_.r.can_push()) {
    const AddrReq ar = link_.ar.pop();
    AXIHC_CHECK_MSG(ar.beats == 1,
                    name() << ": HA control reads must be single-beat");
    link_.r.push({ar.id, read(ar.addr), true, Resp::kOkay});
  }
}

Cycle HaControlSlave::next_activity(Cycle now) const {
  // A busy-state edge must be latched (and the IRQ raised) on the next tick.
  if (was_busy_ != ha_.busy()) return now;
  // Any pending register access needs service. Conservative: a write also
  // needs W and B headroom, but a stuck peer keeps those channels stable, so
  // `now` is only ever over-eager, never late.
  if (link_.aw.can_pop() || link_.w.can_pop() || link_.ar.can_pop()) {
    return now;
  }
  return kNoCycle;
}

}  // namespace axihc
