#include "ha/traffic_gen.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

TrafficGenerator::TrafficGenerator(std::string name, AxiLink& link,
                                   TrafficConfig cfg)
    : AxiMasterBase(std::move(name), link, cfg.max_outstanding,
                    cfg.max_outstanding, cfg.tolerate_out_of_order),
      cfg_(cfg) {
  AXIHC_CHECK(cfg_.burst_beats >= 1 && cfg_.burst_beats <= kMaxAxi4BurstBeats);
  AXIHC_CHECK(cfg_.region_bytes >= std::uint64_t{cfg_.burst_beats} * kBusBytes);
}

void TrafficGenerator::reset_master() {
  issued_ = 0;
  offset_ = 0;
  next_try_at_ = 0;
  next_is_write_ = false;
}

TrafficConfig TrafficGenerator::bandwidth_stealer(Addr base) {
  TrafficConfig cfg;
  cfg.direction = TrafficDirection::kRead;
  cfg.base = base;
  cfg.region_bytes = 4ull << 20;
  cfg.burst_beats = kMaxAxi4BurstBeats;  // 256-beat bursts: 2 KiB per grant
  cfg.gap_cycles = 0;
  cfg.max_outstanding = 16;
  return cfg;
}

void TrafficGenerator::tick(Cycle now) {
  const bool budget_left =
      cfg_.max_transactions == 0 || issued_ < cfg_.max_transactions;

  if (budget_left && now >= next_try_at_) {
    const bool want_write =
        cfg_.direction == TrafficDirection::kWrite ||
        (cfg_.direction == TrafficDirection::kMixed && next_is_write_);
    bool sent = false;
    if (want_write) {
      if (can_issue_write()) {
        issue_write(cfg_.base + offset_, cfg_.burst_beats, now,
                    /*fill_seed=*/offset_);
        sent = true;
      }
    } else {
      if (can_issue_read()) {
        issue_read(cfg_.base + offset_, cfg_.burst_beats, now);
        sent = true;
      }
    }
    if (sent) {
      ++issued_;
      offset_ += std::uint64_t{cfg_.burst_beats} * kBusBytes;
      if (offset_ + std::uint64_t{cfg_.burst_beats} * kBusBytes >
          cfg_.region_bytes) {
        offset_ = 0;
      }
      // The countdown form idled ticks T+1..T+gap and issued at T+gap+1;
      // the deadline form allows the same cycle.
      next_try_at_ = now + cfg_.gap_cycles + 1;
      if (cfg_.direction == TrafficDirection::kMixed) {
        next_is_write_ = !next_is_write_;
      }
    }
  }

  pump(now);
}

Cycle TrafficGenerator::next_activity(Cycle now) const {
  if (!pump_idle()) return now;
  const bool budget_left =
      cfg_.max_transactions == 0 || issued_ < cfg_.max_transactions;
  if (budget_left) {
    if (now < next_try_at_) return next_try_at_;  // waiting out the gap
    const bool want_write =
        cfg_.direction == TrafficDirection::kWrite ||
        (cfg_.direction == TrafficDirection::kMixed && next_is_write_);
    if (want_write ? can_issue_write() : can_issue_read()) return now;
  }
  return kNoCycle;  // budget spent, or blocked on backpressure/responses
}

}  // namespace axihc
