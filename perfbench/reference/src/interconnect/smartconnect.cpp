#include "interconnect/smartconnect.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace axihc {

SmartConnect::SmartConnect(std::string name, std::uint32_t num_ports,
                           SmartConnectConfig cfg)
    : Interconnect(std::move(name), num_ports, cfg.port_link_cfg,
                   cfg.master_link_cfg),
      cfg_(cfg),
      read_route_(cfg.max_outstanding_reads),
      w_pull_(cfg.max_outstanding_writes),
      b_route_(cfg.max_outstanding_writes) {
  AXIHC_CHECK(cfg_.grant_granularity >= 1);
}

void SmartConnect::reset() {
  rr_ar_ = rr_aw_ = 0;
  ar_grants_left_ = aw_grants_left_ = 0;
  ar_pipe_.clear();
  aw_pipe_.clear();
  r_pipe_.clear();
  w_pipe_.clear();
  b_pipe_.clear();
  read_route_.clear();
  w_pull_.clear();
  b_route_.clear();
  for (PortIndex i = 0; i < num_ports(); ++i) {
    mutable_counters(i) = PortCounters{};
  }
}

bool SmartConnect::arbitrate_addr(bool is_write, Cycle now) {
  PortIndex& rr = is_write ? rr_aw_ : rr_ar_;
  std::uint32_t& grants_left = is_write ? aw_grants_left_ : ar_grants_left_;

  auto pending = [&](PortIndex p) {
    auto& ch = is_write ? port_link(p).aw : port_link(p).ar;
    return ch.can_pop();
  };

  // Keep granting the current winner while it has queued requests and
  // granularity budget; otherwise rotate to the next requester.
  if (grants_left == 0 || !pending(rr)) {
    PortIndex candidate = rr;
    bool found = false;
    for (std::uint32_t i = 1; i <= num_ports(); ++i) {
      candidate = (rr + i) % num_ports();
      if (pending(candidate)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
    rr = candidate;
    grants_left = cfg_.grant_granularity;
  }

  // Route-memory capacity acts as the interconnect's outstanding limit.
  if (is_write) {
    if (w_pull_.full() || b_route_.full()) return false;
  } else {
    if (read_route_.full()) return false;
  }

  AxiLink& link = port_link(rr);
  if (is_write) {
    AddrReq req = link.aw.pop();
    w_pull_.push({rr, req.beats});
    b_route_.push(rr);
    aw_pipe_.push_back({now + cfg_.aw_extra_delay, req});
    ++mutable_counters(rr).aw_granted;
  } else {
    AddrReq req = link.ar.pop();
    read_route_.push({rr});
    ar_pipe_.push_back({now + cfg_.ar_extra_delay, req});
    ++mutable_counters(rr).ar_granted;
  }
  --grants_left;
  return true;
}

void SmartConnect::drain_pipes(Cycle now) {
  if (!ar_pipe_.empty() && ar_pipe_.front().ready_at <= now &&
      master_link().ar.can_push()) {
    master_link().ar.push(ar_pipe_.front().payload);
    ar_pipe_.pop_front();
  }
  if (!aw_pipe_.empty() && aw_pipe_.front().ready_at <= now &&
      master_link().aw.can_push()) {
    master_link().aw.push(aw_pipe_.front().payload);
    aw_pipe_.pop_front();
  }
  if (!w_pipe_.empty() && w_pipe_.front().ready_at <= now &&
      master_link().w.can_push()) {
    master_link().w.push(w_pipe_.front().payload);
    w_pipe_.pop_front();
  }
  // R exits toward the port recorded at AR grant time (in-order).
  if (!r_pipe_.empty() && r_pipe_.front().ready_at <= now) {
    AXIHC_CHECK_MSG(!read_route_.empty(),
                    name() << ": R data with no routing info");
    const PortIndex port = read_route_.front().port;
    auto& r_up = port_link(port).r;
    if (r_up.can_push()) {
      const RBeat beat = r_pipe_.front().payload;
      r_up.push(beat);
      r_pipe_.pop_front();
      ++mutable_counters(port).r_beats;
      if (beat.last) read_route_.pop();
    }
  }
  if (!b_pipe_.empty() && b_pipe_.front().ready_at <= now) {
    AXIHC_CHECK_MSG(!b_route_.empty(),
                    name() << ": B response with no routing info");
    const PortIndex port = b_route_.front();
    auto& b_up = port_link(port).b;
    if (b_up.can_push()) {
      b_up.push(b_pipe_.front().payload);
      b_pipe_.pop_front();
      ++mutable_counters(port).b_resps;
      b_route_.pop();
    }
  }
}

Cycle SmartConnect::next_activity(Cycle now) const {
  // Returning R/B to capture, or upstream requests/data to arbitrate/pull.
  if (master_link().r.can_pop() || master_link().b.can_pop()) return now;
  for (PortIndex i = 0; i < num_ports(); ++i) {
    const AxiLink& link = port_link(i);
    if (link.ar.can_pop() || link.aw.can_pop() || link.w.can_pop()) {
      return now;
    }
  }
  // Only pipeline stages remain: the next interesting cycle is the earliest
  // ready_at among the pipe heads (earlier ticks cannot move anything — the
  // world is frozen, so no new input appears and can_push headroom only
  // matters once a head is ready).
  Cycle next = kNoCycle;
  auto consider = [&](const auto& pipe) {
    if (pipe.empty()) return;
    const Cycle at = pipe.front().ready_at;
    next = std::min(next, at > now ? at : now);
  };
  consider(ar_pipe_);
  consider(aw_pipe_);
  consider(r_pipe_);
  consider(w_pipe_);
  consider(b_pipe_);
  return next;
}

void SmartConnect::tick(Cycle now) {
  // Capture returning R/B into the response pipelines first, so a zero-extra
  // delay stage can exit in the same tick (B achieves its 2-cycle total).
  if (master_link().r.can_pop()) {
    r_pipe_.push_back({now + cfg_.r_extra_delay, master_link().r.pop()});
  }
  if (master_link().b.can_pop()) {
    b_pipe_.push_back({now + cfg_.b_extra_delay, master_link().b.pop()});
  }

  // Address arbitration: at most one grant per address channel per cycle.
  arbitrate_addr(/*is_write=*/false, now);
  arbitrate_addr(/*is_write=*/true, now);

  // Pull one W beat per cycle from the port whose AW was granted first.
  if (!w_pull_.empty()) {
    auto& pull = w_pull_.front();
    auto& w_in = port_link(pull.port).w;
    if (w_in.can_pop()) {
      w_pipe_.push_back({now + cfg_.w_extra_delay, w_in.pop()});
      ++mutable_counters(pull.port).w_beats;
      AXIHC_CHECK(pull.beats > 0);
      --pull.beats;
      if (pull.beats == 0) w_pull_.pop();
    }
  }

  drain_pipes(now);
}

}  // namespace axihc
