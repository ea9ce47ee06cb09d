#include "mem/memory_controller.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace axihc {

MemoryController::MemoryController(std::string name, AxiLink& link,
                                   BackingStore& store,
                                   MemoryControllerConfig cfg,
                                   AxiLink* ps_link)
    : Component(std::move(name)),
      link_(link),
      ps_link_(ps_link),
      store_(store),
      cfg_(cfg),
      open_row_(cfg.banks, kNoRow) {
  AXIHC_CHECK(cfg_.banks > 0);
  AXIHC_CHECK_MSG(ps_link_ == nullptr ||
                      cfg_.scheduling == MemScheduling::kInOrder,
                  this->name() << ": a PS port needs in-order scheduling");
}

void MemoryController::set_latency_audit(LatencyAudit* audit) {
  AXIHC_CHECK_MSG(audit == nullptr || ps_link_ == nullptr,
                  name() << ": the latency auditor matches one port's "
                            "commands; this controller has a PS port");
  audit_ = audit;
}

void MemoryController::append_digest(StateDigest& d) const {
  d.mix(reads_served_);
  d.mix(writes_served_);
  d.mix(beats_served_);
  d.mix(busy_cycles_);
  d.mix(row_hits_);
  d.mix(row_misses_);
  d.mix(reordered_);
  d.mix(refreshes_);
  d.mix(decode_errors_);
  d.mix(slv_errors_);
  d.mix(static_cast<std::uint64_t>(queue_.size()));
  d.mix(static_cast<std::uint64_t>(phase_));
  d.mix(static_cast<std::uint64_t>(wait_left_));
  d.mix(beats_left_);
}

void MemoryController::register_metrics(MetricsRegistry& reg) {
  reg.add_gauge(name() + ".queue_depth",
                [this] { return static_cast<double>(queue_.size()); });
  reg.add_counter(name() + ".reads_served", &reads_served_);
  reg.add_counter(name() + ".writes_served", &writes_served_);
  reg.add_counter(name() + ".beats_served", &beats_served_);
  reg.add_counter(name() + ".busy_cycles", &busy_cycles_);
  reg.add_counter(name() + ".row_hits", &row_hits_);
  reg.add_counter(name() + ".row_misses", &row_misses_);
  reg.add_counter(name() + ".reordered", &reordered_);
  reg.add_counter(name() + ".refreshes", &refreshes_);
  reg.add_counter(name() + ".decode_errors", &decode_errors_);
  reg.add_counter(name() + ".slv_errors", &slv_errors_);
}

void MemoryController::reset() {
  queue_.clear();
  phase_ = Phase::kIdle;
  current_resp_ = Resp::kOkay;
  wait_left_ = 0;
  beats_left_ = 0;
  next_beat_addr_ = 0;
  stream_index_ = 0;
  reordered_ = 0;
  open_row_.assign(cfg_.banks, kNoRow);
  reads_served_ = writes_served_ = beats_served_ = 0;
  busy_cycles_ = 0;
  row_hits_ = row_misses_ = 0;
  refreshes_ = 0;
  decode_errors_ = slv_errors_ = 0;
}

Resp MemoryController::resolve_resp(const AddrReq& req) const {
  const std::uint64_t span = burst_end(req) - req.addr;
  if (!cfg_.mapped_ranges.empty()) {
    bool mapped = false;
    for (const AddrRange& r : cfg_.mapped_ranges) {
      if (r.contains_span(req.addr, span)) {
        mapped = true;
        break;
      }
    }
    // DECERR: no slave decodes (all of) this burst. Bursts never cross a
    // 4 KiB boundary, so partial decode only happens at a range edge.
    if (!mapped) return Resp::kDecErr;
  }
  for (const AddrRange& r : cfg_.slverr_ranges) {
    if (r.overlaps(req.addr, span)) return Resp::kSlvErr;
  }
  return Resp::kOkay;
}

Cycle MemoryController::access_latency(Addr addr) {
  const std::uint64_t row = addr >> cfg_.row_bytes_log2;
  const std::uint64_t bank = row % cfg_.banks;
  if (open_row_[bank] == row) {
    ++row_hits_;
    return cfg_.row_hit_latency;
  }
  open_row_[bank] = row;
  ++row_misses_;
  return cfg_.row_miss_latency;
}

bool MemoryController::would_hit(Addr addr) const {
  const std::uint64_t row = addr >> cfg_.row_bytes_log2;
  const std::uint64_t bank = row % cfg_.banks;
  return open_row_[bank] == row;
}

void MemoryController::accept_from(AxiLink& link) {
  // In-order merge of the two address channels; AR is checked first, so a
  // read and a write arriving the same cycle enqueue read-first
  // (deterministic tie-break, documented behaviour).
  if (link.ar.can_pop()) queue_.push_back({false, link.ar.pop(), &link, {}});
  if (link.aw.can_pop()) queue_.push_back({true, link.aw.pop(), &link, {}});
}

void MemoryController::accept_new_requests() {
  // The PS port is polled first: same-cycle arrivals enqueue PS-first.
  if (ps_link_ != nullptr) accept_from(*ps_link_);
  accept_from(link_);
}

void MemoryController::buffer_write_data() {
  // kFrFcfs: drain one W beat per cycle into the oldest incomplete write
  // buffer (W data arrives in AW order by AXI rule).
  if (!link_.w.can_pop()) return;
  for (auto& cmd : queue_) {
    if (!cmd.is_write || cmd.data.size() == cmd.req.beats) continue;
    const WBeat beat = link_.w.pop();
    cmd.data.push_back(beat);
    if (cmd.data.size() == cmd.req.beats) {
      AXIHC_CHECK_MSG(beat.last, name() << ": W burst longer than AW said");
    } else {
      AXIHC_CHECK_MSG(!beat.last, name() << ": early WLAST");
    }
    return;
  }
  // No queued write is missing data; leave the beat for a not-yet-arrived
  // AW (it stays in the channel).
}

bool MemoryController::eligible(std::size_t index) const {
  const Command& cmd = queue_[index];
  // Writes need their data buffered before they can execute out of order.
  if (cmd.is_write && cmd.data.size() != cmd.req.beats) return false;
  // AXI per-ID ordering: a command must not overtake an older command with
  // the same (masked) ID. With the HyperConnect's ID-extension mode the
  // mask selects the port bits, so per-source-port order is preserved.
  const TxnId key = cmd.req.id & cfg_.id_order_mask;
  for (std::size_t i = 0; i < index; ++i) {
    if ((queue_[i].req.id & cfg_.id_order_mask) == key) return false;
  }
  // B responses must also not overtake for the same ID; covered above.
  return true;
}

std::size_t MemoryController::pick_next() const {
  // FR-FCFS: oldest eligible row-hit first, else oldest eligible.
  std::size_t first_eligible = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (!eligible(i)) continue;
    if (first_eligible == queue_.size()) first_eligible = i;
    if (would_hit(queue_[i].req.addr)) return i;
  }
  return first_eligible;
}

std::size_t MemoryController::pick_in_order() const {
  if (ps_link_ == nullptr || !cfg_.ps_priority) return 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].link == ps_link_) return i;
  }
  return 0;
}

void MemoryController::start_next_command() {
  if (queue_.empty()) return;
  const std::size_t index = cfg_.scheduling == MemScheduling::kFrFcfs
                                ? pick_next()
                                : pick_in_order();
  if (index == queue_.size()) return;  // FR-FCFS: nothing eligible yet
  if (index != 0) ++reordered_;
  current_ = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  current_resp_ = resolve_resp(current_.req);
  if (current_resp_ == Resp::kDecErr) {
    ++decode_errors_;
    if (tracing()) trace_->record(now_, name(), "decerr");
  }
  if (current_resp_ == Resp::kSlvErr) {
    ++slv_errors_;
    if (tracing()) trace_->record(now_, name(), "slverr");
  }
  wait_left_ = access_latency(current_.req.addr);
  beats_left_ = current_.req.beats;
  next_beat_addr_ = current_.req.addr;
  stream_index_ = 0;
  phase_ = Phase::kLatency;
  if (audit_ != nullptr && audit_->enabled())
    audit_->on_mem_start(current_.is_write, now_);
}

Cycle MemoryController::next_activity(Cycle now) const {
  // Pending requests on AR/AW need accepting. W data is consumed only by a
  // streaming in-order write (always active below), or buffered as it
  // arrives under FR-FCFS.
  if (link_.ar.can_pop() || link_.aw.can_pop()) return now;
  if (ps_link_ != nullptr &&
      (ps_link_->ar.can_pop() || ps_link_->aw.can_pop())) {
    return now;
  }
  if (cfg_.scheduling == MemScheduling::kFrFcfs && link_.w.can_pop()) {
    return now;
  }
  switch (phase_) {
    case Phase::kIdle:
      if (!queue_.empty()) return now;
      // Fully idle. The only self-scheduled event is the refresh boundary,
      // which closes all open rows even with no traffic.
      if (cfg_.refresh_period != 0) {
        const Cycle p = cfg_.refresh_period;
        return now % p == 0 ? now : (now / p + 1) * p;
      }
      return kNoCycle;
    case Phase::kLatency:
    case Phase::kTurnaround:
    case Phase::kStreamRead:
    case Phase::kStreamWrite: {
      // A countdown, or a stream blocked on R room, W data or B room: until
      // it ends each tick only counts a busy cycle (and decrements
      // wait_left_), which tick() catches up on. A refresh window freezes
      // the controller (`now % period < duration`), so the certificate
      // stops at the next window and is `now` inside one.
      Cycle next = kNoCycle;
      if (phase_ == Phase::kLatency || phase_ == Phase::kTurnaround) {
        next = now + wait_left_;
      } else if (!stream_blocked()) {
        return now;
      }
      const Cycle period = cfg_.refresh_period;
      if (period != 0 && cfg_.refresh_duration != 0) {
        if (now % period < cfg_.refresh_duration) return now;
        next = std::min(next, (now / period + 1) * period);
      }
      return next;
    }
  }
  return now;
}


void MemoryController::tick(Cycle now) {
  // Lazy catch-up: a countdown's or a blocked stream's certificate let the
  // kernel skip ticks that would each have counted a busy cycle (and
  // consumed one cycle of wait_left_).
  if (phase_ != Phase::kIdle && now > now_ + 1) {
    const Cycle skipped = now - now_ - 1;
    if (phase_ == Phase::kLatency || phase_ == Phase::kTurnaround) {
      AXIHC_CHECK_MSG(skipped <= wait_left_,
                      name() << ": skipped past the end of a countdown");
      wait_left_ -= skipped;
    }
    busy_cycles_ += skipped;
  }
  now_ = now;
  accept_new_requests();
  if (cfg_.scheduling == MemScheduling::kFrFcfs) buffer_write_data();

  // DRAM refresh window (tREFI/tRFC): the device is unavailable. Refresh
  // also closes all open rows (precharge-all).
  if (cfg_.refresh_period != 0 &&
      (now % cfg_.refresh_period) < cfg_.refresh_duration) {
    if (now % cfg_.refresh_period == 0) {
      open_row_.assign(cfg_.banks, kNoRow);
      ++refreshes_;
      if (tracing()) trace_->record(now, name(), "refresh");
    }
    return;
  }

  if (phase_ != Phase::kIdle) ++busy_cycles_;

  switch (phase_) {
    case Phase::kIdle:
      start_next_command();
      break;

    case Phase::kLatency:
      if (wait_left_ > 0) {
        --wait_left_;
        break;
      }
      phase_ = current_.is_write ? Phase::kStreamWrite : Phase::kStreamRead;
      [[fallthrough]];

    case Phase::kStreamRead:
    case Phase::kStreamWrite: {
      // Error transactions (DECERR decode miss / SLVERR window) keep their
      // timing but never touch the backing store; every R beat and the B
      // response carry the resolved error code.
      AxiLink& link = *current_.link;
      if (phase_ == Phase::kStreamRead) {
        if (!link.r.can_push()) break;  // backpressure from the fabric
        RBeat beat;
        beat.id = current_.req.id;
        beat.data =
            current_resp_ == Resp::kOkay ? store_.read_word(next_beat_addr_)
                                         : 0;
        beat.last = beats_left_ == 1;
        beat.resp = current_resp_;
        link.r.push(beat);
      } else if (cfg_.scheduling == MemScheduling::kFrFcfs) {
        // Data was pre-buffered; stream one beat per cycle from the buffer.
        const bool final_beat = beats_left_ == 1;
        if (final_beat && !link.b.can_push()) break;
        const WBeat& beat = current_.data[stream_index_++];
        if (current_resp_ == Resp::kOkay) {
          store_.write_word(next_beat_addr_, beat.data, beat.strb);
        }
        if (final_beat) link.b.push({current_.req.id, current_resp_});
      } else {
        if (!link.w.can_pop()) break;  // W data not here yet
        const bool final_beat = beats_left_ == 1;
        if (final_beat && !link.b.can_push()) break;  // hold last beat for B
        const WBeat beat = link.w.pop();
        if (current_resp_ == Resp::kOkay) {
          store_.write_word(next_beat_addr_, beat.data, beat.strb);
        }
        if (final_beat) {
          AXIHC_CHECK_MSG(beat.last, "W burst longer than AW advertised");
          link.b.push({current_.req.id, current_resp_});
        }
      }
      ++beats_served_;
      if (current_.req.burst != BurstType::kFixed) {
        next_beat_addr_ += std::uint64_t{1} << current_.req.size_log2;
      }
      --beats_left_;
      if (beats_left_ == 0) {
        if (current_.is_write) {
          ++writes_served_;
        } else {
          ++reads_served_;
        }
        wait_left_ = cfg_.turnaround;
        phase_ = Phase::kTurnaround;
        if (audit_ != nullptr && audit_->enabled()) audit_->on_mem_done(now_);
      }
      break;
    }

    case Phase::kTurnaround:
      if (wait_left_ > 0) {
        --wait_left_;
        break;
      }
      phase_ = Phase::kIdle;
      start_next_command();
      break;
  }
}

}  // namespace axihc
