#include "fault/fault_injector.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace axihc {

FaultInjector::FaultInjector(std::string name, AxiLink& ha_side,
                             AxiLink& bus_side, const FaultScenario& scenario,
                             PortIndex port)
    : Component(std::move(name)),
      ha_(ha_side),
      bus_(bus_side),
      port_(port),
      seed_(scenario.seed ^ (0x9e3779b97f4a7c15ULL * (port + 1))),
      rng_(seed_) {
  for (const FaultSpec& f : scenario.faults) {
    if (f.port == port_) faults_.push_back(f);
  }
  stats_.effective_seed = seed_;
}

void FaultInjector::append_digest(StateDigest& d) const {
  d.mix(stats_.ar_stalled);
  d.mix(stats_.aw_stalled);
  d.mix(stats_.w_stalled);
  d.mix(stats_.r_stalled);
  d.mix(stats_.b_stalled);
  d.mix(stats_.w_dropped);
  d.mix(stats_.w_delay_cycles);
  d.mix(stats_.bursts_truncated);
  d.mix(stats_.lens_corrupted);
  d.mix(static_cast<std::uint64_t>(w_bursts_.size()));
  d.mix(static_cast<std::uint64_t>(w_hold_left_));
}

void FaultInjector::reset() {
  rng_.seed(seed_);
  w_bursts_.clear();
  w_hold_left_ = 0;
  next_tick_ = 0;
  stats_ = FaultInjectorStats{};
  stats_.effective_seed = seed_;
}

bool FaultInjector::stalled(FaultKind kind, Cycle now) const {
  // Stall faults ignore `probability`: a hung handshake is hung every cycle.
  for (const FaultSpec& f : faults_) {
    if (f.kind == kind && f.active_at(now)) return true;
  }
  return false;
}

Cycle FaultInjector::next_edge(FaultKind kind, Cycle now) const {
  Cycle next = kNoCycle;
  for (const FaultSpec& f : faults_) {
    if (f.kind != kind) continue;
    if (f.start > now) {
      next = std::min(next, f.start);
    } else if (f.duration != 0 && f.start + f.duration > now) {
      next = std::min(next, f.start + f.duration);
    }
  }
  return next;
}

const FaultSpec* FaultInjector::active_spec(FaultKind kind, Cycle now) const {
  for (const FaultSpec& f : faults_) {
    if (f.kind == kind && f.active_at(now)) return &f;
  }
  return nullptr;
}

bool FaultInjector::chance(double probability) {
  if (probability >= 1.0) return true;
  if (probability <= 0.0) return false;
  // 53-bit mantissa trick: identical across standard libraries, unlike
  // uniform_real_distribution.
  const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
  return u < probability;
}

void FaultInjector::forward_ar(Cycle now) {
  if (!ha_.ar.can_pop() || !bus_.ar.can_push()) return;
  if (stalled(FaultKind::kStallAr, now)) {
    ++stats_.ar_stalled;
    return;
  }
  AddrReq req = ha_.ar.pop();
  if (const FaultSpec* f = active_spec(FaultKind::kCorruptLen, now)) {
    if (chance(f->probability)) {
      req.beats = static_cast<BeatCount>(
          std::clamp<std::uint64_t>(f->param, 1, kMaxAxi4BurstBeats));
      ++stats_.lens_corrupted;
    }
  }
  bus_.ar.push(req);
}

void FaultInjector::forward_aw(Cycle now) {
  if (!ha_.aw.can_pop() || !bus_.aw.can_push()) return;
  if (stalled(FaultKind::kStallAw, now)) {
    ++stats_.aw_stalled;
    return;
  }
  AddrReq req = ha_.aw.pop();
  const BeatCount upstream_beats = req.beats;  // what the HA will send on W

  WBurst burst;
  if (const FaultSpec* f = active_spec(FaultKind::kTruncateWrite, now)) {
    if (upstream_beats > 1 && chance(f->probability)) {
      const BeatCount cut = static_cast<BeatCount>(
          std::min<std::uint64_t>(f->param == 0 ? 1 : f->param,
                                  upstream_beats - 1));
      burst.truncate_after = upstream_beats - cut;
    }
  }
  w_bursts_.push_back(burst);

  if (const FaultSpec* f = active_spec(FaultKind::kCorruptLen, now)) {
    if (chance(f->probability)) {
      req.beats = static_cast<BeatCount>(
          std::clamp<std::uint64_t>(f->param, 1, kMaxAxi4BurstBeats));
      ++stats_.lens_corrupted;
    }
  }
  bus_.aw.push(req);
}

void FaultInjector::forward_w(Cycle now) {
  if (!ha_.w.can_pop()) return;
  if (stalled(FaultKind::kStallW, now)) {
    ++stats_.w_stalled;
    return;
  }
  // W beats belong to the oldest forwarded AW; until that AW has been
  // forwarded (e.g. it is being stalled) the data must wait here, exactly
  // like a skid buffer behind a hung address channel.
  if (w_bursts_.empty()) return;
  WBurst& burst = w_bursts_.front();

  if (burst.swallowing) {
    // Past an injected early WLAST: eat the remainder of the upstream burst.
    const WBeat beat = ha_.w.pop();
    if (beat.last) w_bursts_.pop_front();
    return;
  }

  if (w_hold_left_ > 0) {
    --w_hold_left_;
    ++stats_.w_delay_cycles;
    return;
  }
  if (!bus_.w.can_push()) return;

  if (const FaultSpec* f = active_spec(FaultKind::kDropW, now)) {
    if (chance(f->probability)) {
      const WBeat beat = ha_.w.pop();
      ++stats_.w_dropped;
      ++burst.beats_seen;
      if (beat.last) w_bursts_.pop_front();  // burst now short downstream
      return;
    }
  }
  if (const FaultSpec* f = active_spec(FaultKind::kDelayW, now)) {
    if (f->param > 0 && chance(f->probability)) {
      w_hold_left_ = f->param;  // hold the front beat; counted as it waits
      return;
    }
  }

  WBeat beat = ha_.w.pop();
  ++burst.beats_seen;
  const bool upstream_last = beat.last;
  if (burst.truncate_after != 0 && burst.beats_seen == burst.truncate_after &&
      !upstream_last) {
    beat.last = true;  // spurious early WLAST
    ++stats_.bursts_truncated;
    burst.swallowing = true;
    bus_.w.push(beat);
    return;
  }
  bus_.w.push(beat);
  if (upstream_last) w_bursts_.pop_front();
}

void FaultInjector::forward_r(Cycle now) {
  if (!bus_.r.can_pop() || !ha_.r.can_push()) return;
  if (stalled(FaultKind::kStallR, now)) {
    ++stats_.r_stalled;
    return;
  }
  ha_.r.push(bus_.r.pop());
}

void FaultInjector::forward_b(Cycle now) {
  if (!bus_.b.can_pop() || !ha_.b.can_push()) return;
  if (stalled(FaultKind::kStallB, now)) {
    ++stats_.b_stalled;
    return;
  }
  ha_.b.push(bus_.b.pop());
}

Cycle FaultInjector::next_activity(Cycle now) const {
  // Mirrors tick(). A pass-through channel acts only when its input can pop
  // and its output can push: it forwards, or inside a stall window counts a
  // stalled cycle, which tick() catches up on until the window's next edge.
  // Every other fault kind acts on a forwarding event, so its window edges
  // need no wake-up of their own.
  Cycle next = kNoCycle;
  const auto quiet = [&](bool ready, FaultKind stall) {
    if (!ready) return true;
    if (!stalled(stall, now)) return false;
    next = std::min(next, next_edge(stall, now));
    return true;
  };
  if (!quiet(ha_.ar.can_pop() && bus_.ar.can_push(), FaultKind::kStallAr) ||
      !quiet(ha_.aw.can_pop() && bus_.aw.can_push(), FaultKind::kStallAw) ||
      !quiet(bus_.r.can_pop() && ha_.r.can_push(), FaultKind::kStallR) ||
      !quiet(bus_.b.can_pop() && ha_.b.can_push(), FaultKind::kStallB)) {
    return now;
  }
  if (!ha_.w.can_pop()) return next;
  // W path: a kStallW window counts every cycle a beat waits in it, so the
  // window's edges are deadlines.
  next = std::min(next, next_edge(FaultKind::kStallW, now));
  if (stalled(FaultKind::kStallW, now)) return next;
  // Otherwise W data moves only behind a forwarded AW: the front burst is
  // swallowing, bus W has room, or a delay_w hold counts down to its end.
  if (w_bursts_.empty()) return next;
  if (w_bursts_.front().swallowing) return now;
  if (w_hold_left_ > 0) return std::min(next, now + w_hold_left_);
  return bus_.w.can_push() ? now : next;
}

void FaultInjector::catch_up(Cycle skipped, Cycle last) {
  // The channels' readiness is unchanged since the skip began (the world
  // was frozen), and next_activity stopped it at the next window edge.
  const auto count = [&](bool ready, FaultKind stall, std::uint64_t& stat) {
    if (ready && stalled(stall, last)) stat += skipped;
  };
  count(ha_.ar.can_pop() && bus_.ar.can_push(), FaultKind::kStallAr,
        stats_.ar_stalled);
  count(ha_.aw.can_pop() && bus_.aw.can_push(), FaultKind::kStallAw,
        stats_.aw_stalled);
  count(bus_.r.can_pop() && ha_.r.can_push(), FaultKind::kStallR,
        stats_.r_stalled);
  count(bus_.b.can_pop() && ha_.b.can_push(), FaultKind::kStallB,
        stats_.b_stalled);
  if (!ha_.w.can_pop()) return;
  if (stalled(FaultKind::kStallW, last)) {
    stats_.w_stalled += skipped;
  } else if (!w_bursts_.empty() && !w_bursts_.front().swallowing &&
             w_hold_left_ > 0) {
    AXIHC_CHECK_MSG(skipped <= w_hold_left_,
                    name() << ": skipped past the end of a delay_w hold");
    w_hold_left_ -= skipped;
    stats_.w_delay_cycles += skipped;
  }
}

void FaultInjector::tick(Cycle now) {
  if (now > next_tick_) catch_up(now - next_tick_, now - 1);
  next_tick_ = now + 1;
  forward_ar(now);
  forward_aw(now);
  forward_w(now);
  forward_r(now);
  forward_b(now);
}

}  // namespace axihc
