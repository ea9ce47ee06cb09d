#include "mem/dual_port_controller.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace axihc {

DualPortMemoryController::DualPortMemoryController(std::string name,
                                                   AxiLink& ps_link,
                                                   AxiLink& fpga_link,
                                                   BackingStore& store,
                                                   DualPortConfig cfg)
    : Component(std::move(name)),
      ps_link_(ps_link),
      fpga_link_(fpga_link),
      store_(store),
      cfg_(cfg),
      open_row_(cfg.banks, kNoRow) {
  AXIHC_CHECK(cfg_.banks > 0);
}

void DualPortMemoryController::reset() {
  queue_.clear();
  busy_ = false;
  wait_left_ = 0;
  beats_left_ = 0;
  next_beat_addr_ = 0;
  streaming_ = false;
  turnaround_ = false;
  open_row_.assign(cfg_.banks, kNoRow);
  ps_served_ = 0;
  fpga_served_ = 0;
}

Cycle DualPortMemoryController::access_latency(Addr addr) {
  const std::uint64_t row = addr >> cfg_.row_bytes_log2;
  const std::uint64_t bank = row % cfg_.banks;
  if (open_row_[bank] == row) return cfg_.row_hit_latency;
  open_row_[bank] = row;
  return cfg_.row_miss_latency;
}

void DualPortMemoryController::accept_from(AxiLink& link, Source source) {
  if (link.ar.can_pop()) queue_.push_back({source, false, link.ar.pop()});
  if (link.aw.can_pop()) queue_.push_back({source, true, link.aw.pop()});
}

void DualPortMemoryController::start_next_command() {
  if (queue_.empty()) return;
  std::size_t index = 0;
  if (cfg_.ps_priority) {
    // Oldest PS command first; fall back to the overall oldest.
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i].source == Source::kPs) {
        index = i;
        break;
      }
    }
  }
  current_ = queue_[index];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  wait_left_ = access_latency(current_.req.addr);
  beats_left_ = current_.req.beats;
  next_beat_addr_ = current_.req.addr;
  busy_ = true;
  streaming_ = false;
  turnaround_ = false;
}

void DualPortMemoryController::tick(Cycle) {
  // PS port is polled first: same-cycle arrivals from both ports enqueue
  // PS-first (deterministic tie-break).
  accept_from(ps_link_, Source::kPs);
  accept_from(fpga_link_, Source::kFpga);

  if (!busy_) {
    start_next_command();
    return;
  }

  if (turnaround_) {
    if (wait_left_ > 0) {
      --wait_left_;
      return;
    }
    busy_ = false;
    start_next_command();
    return;
  }

  if (!streaming_) {
    if (wait_left_ > 0) {
      --wait_left_;
      return;
    }
    streaming_ = true;
  }

  AxiLink& link = link_of(current_.source);
  if (!current_.is_write) {
    if (!link.r.can_push()) return;
    RBeat beat;
    beat.id = current_.req.id;
    beat.data = store_.read_word(next_beat_addr_);
    beat.last = beats_left_ == 1;
    link.r.push(beat);
  } else {
    if (!link.w.can_pop()) return;
    const bool final_beat = beats_left_ == 1;
    if (final_beat && !link.b.can_push()) return;
    const WBeat beat = link.w.pop();
    store_.write_word(next_beat_addr_, beat.data, beat.strb);
    if (final_beat) {
      AXIHC_CHECK_MSG(beat.last, name() << ": W burst longer than AW said");
      link.b.push({current_.req.id, Resp::kOkay});
    }
  }
  if (current_.req.burst != BurstType::kFixed) {
    next_beat_addr_ += std::uint64_t{1} << current_.req.size_log2;
  }
  --beats_left_;
  if (beats_left_ == 0) {
    (current_.source == Source::kPs ? ps_served_ : fpga_served_) += 1;
    wait_left_ = cfg_.turnaround;
    turnaround_ = true;
  }
}

}  // namespace axihc
