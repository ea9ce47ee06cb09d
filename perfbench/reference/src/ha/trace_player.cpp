#include "ha/trace_player.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

TracePlayer::TracePlayer(std::string name, AxiLink& link,
                         std::vector<TraceEntry> trace,
                         std::uint32_t max_outstanding)
    : AxiMasterBase(std::move(name), link, max_outstanding, max_outstanding),
      trace_(std::move(trace)) {
  for (std::size_t i = 1; i < trace_.size(); ++i) {
    AXIHC_CHECK_MSG(trace_[i - 1].issue_at <= trace_[i].issue_at,
                    "trace must be sorted by issue cycle");
  }
}

void TracePlayer::reset_master() {
  next_ = 0;
  slipped_ = 0;
}

void TracePlayer::tick(Cycle now) {
  if (next_ < trace_.size()) {
    const TraceEntry& e = trace_[next_];
    if (now >= e.issue_at) {
      const bool can = e.is_write ? can_issue_write() : can_issue_read();
      if (can) {
        if (now > e.issue_at) ++slipped_;
        if (e.is_write) {
          issue_write(e.addr, e.beats, now, /*fill_seed=*/e.addr);
        } else {
          issue_read(e.addr, e.beats, now);
        }
        ++next_;
      }
    }
  }
  pump(now);
}

Cycle TracePlayer::next_activity(Cycle now) const {
  if (!pump_idle()) return now;
  if (next_ < trace_.size()) {
    const TraceEntry& e = trace_[next_];
    if (now < e.issue_at) return e.issue_at;  // next scheduled request
    const bool can = e.is_write ? can_issue_write() : can_issue_read();
    if (can) return now;
  }
  return kNoCycle;  // trace drained, or blocked on backpressure/responses
}

}  // namespace axihc
