#include "obs/flight_recorder.hpp"

#include <ostream>

#include "common/check.hpp"

namespace axihc {

const char* latency_cause_name(LatencyCause c) {
  switch (c) {
    case LatencyCause::kPipeline:
      return "pipeline";
    case LatencyCause::kEfifoQueue:
      return "efifo_queue";
    case LatencyCause::kBudgetWait:
      return "budget_wait";
    case LatencyCause::kArbitration:
      return "arbitration";
    case LatencyCause::kBackpressure:
      return "backpressure";
    case LatencyCause::kMemQueue:
      return "mem_queue";
    case LatencyCause::kMemService:
      return "mem_service";
    case LatencyCause::kReturnPath:
      return "return_path";
    case LatencyCause::kRecoveryStall:
      return "recovery_stall";
    case LatencyCause::kCount:
      break;
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  AXIHC_CHECK_MSG(capacity_ > 0, "flight recorder needs a nonzero capacity");
}

void FlightRecorder::append(const FlightRecord& rec) {
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
    return;
  }
  ring_[head_] = rec;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

namespace {

void append_cycle_field(std::ostream& os, const char* key, Cycle v) {
  os << ",\"" << key << "\":";
  if (v == kNoCycle) {
    os << "null";
  } else {
    os << v;
  }
}

}  // namespace

void FlightRecorder::write_jsonl(std::ostream& os) const {
  for (const FlightRecord& r : snapshot()) {
    os << "{\"port\":" << r.port << ",\"dir\":\"" << (r.is_write ? 'w' : 'r')
       << "\",\"id\":" << r.id << ",\"beats\":" << r.beats;
    append_cycle_field(os, "issued", r.issued_at);
    append_cycle_field(os, "accepted", r.accepted_at);
    append_cycle_field(os, "final_issued", r.final_issued_at);
    append_cycle_field(os, "granted", r.granted_at);
    append_cycle_field(os, "hc_exit", r.hc_exit_at);
    append_cycle_field(os, "mem_start", r.mem_start_at);
    append_cycle_field(os, "mem_done", r.mem_done_at);
    append_cycle_field(os, "completed", r.completed_at);
    os << ",\"cause\":{";
    for (std::size_t c = 0; c < kLatencyCauseCount; ++c) {
      if (c != 0) os << ',';
      os << '"' << latency_cause_name(static_cast<LatencyCause>(c))
         << "\":" << r.cause[c];
    }
    os << "},\"latency\":" << r.latency
       << ",\"audited\":" << r.audited_latency << ",\"bound\":";
    if (r.bound == 0) {
      os << "null";
    } else {
      os << r.bound;
    }
    os << ",\"error\":" << (r.error ? "true" : "false")
       << ",\"fault_overlap\":" << (r.fault_overlap ? "true" : "false")
       << ",\"violation\":" << (r.violation ? "true" : "false") << "}\n";
  }
}

void FlightRecorder::clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

}  // namespace axihc
