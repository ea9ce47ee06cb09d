#include "driver/register_master.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

RegisterMaster::RegisterMaster(std::string name, AxiLink& control_link)
    : Component(std::move(name)), link_(control_link) {}

void RegisterMaster::reset() {
  queue_.clear();
  awaiting_b_ = false;
  awaiting_r_ = false;
  pending_cb_ = nullptr;
  next_id_ = 1;
  completed_ = 0;
}

void RegisterMaster::write_reg(Addr offset, std::uint64_t value) {
  queue_.push_back({true, offset, value, nullptr});
}

void RegisterMaster::read_reg(Addr offset, ReadCallback on_value) {
  queue_.push_back({false, offset, 0, std::move(on_value)});
}

void RegisterMaster::tick(Cycle now) {
  // Collect completions.
  if (awaiting_b_ && link_.b.can_pop()) {
    link_.b.pop();
    awaiting_b_ = false;
    ++completed_;
  }
  if (awaiting_r_ && link_.r.can_pop()) {
    const RBeat beat = link_.r.pop();
    AXIHC_CHECK(beat.last);
    awaiting_r_ = false;
    ++completed_;
    if (pending_cb_) pending_cb_(beat.data);
    pending_cb_ = nullptr;
  }

  // Issue the next operation (one in flight at a time).
  if (awaiting_b_ || awaiting_r_ || queue_.empty()) return;
  Op& op = queue_.front();
  if (op.is_write) {
    if (!link_.aw.can_push() || !link_.w.can_push()) return;
    AddrReq aw;
    aw.id = next_id_++;
    aw.addr = op.offset;
    aw.beats = 1;
    aw.issued_at = now;
    link_.aw.push(aw);
    link_.w.push({op.value, 0xff, true});
    awaiting_b_ = true;
  } else {
    if (!link_.ar.can_push()) return;
    AddrReq ar;
    ar.id = next_id_++;
    ar.addr = op.offset;
    ar.beats = 1;
    ar.issued_at = now;
    link_.ar.push(ar);
    pending_cb_ = std::move(op.on_value);
    awaiting_r_ = true;
  }
  queue_.pop_front();
}

}  // namespace axihc
