// Transaction flight recorder: a bounded ring of the most recent completed
// transactions with their full latency provenance (per-hop timestamps and
// cause buckets), dumpable as JSON-lines on fault, bound violation, or exit.
// Like a hardware trace buffer it holds at most `capacity` records: once
// full, each new record overwrites the oldest (counted in dropped()).
// Storage grows as records arrive, so a capacity beyond the run's
// transaction count keeps every record.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.hpp"
#include "obs/latency_cause.hpp"

namespace axihc {

/// One completed transaction. Hop timestamps are kNoCycle when the hop was
/// never reached (fault-truncated transactions).
struct FlightRecord {
  PortIndex port = 0;
  bool is_write = false;
  TxnId id = 0;
  BeatCount beats = 0;
  Cycle issued_at = kNoCycle;      // master pushed AR/AW
  Cycle accepted_at = kNoCycle;    // TS popped the request from the eFIFO
  Cycle final_issued_at = kNoCycle;  // TS issued the final sub-transaction
  Cycle granted_at = kNoCycle;     // EXBAR granted the final sub
  Cycle hc_exit_at = kNoCycle;     // final sub left the HyperConnect
  Cycle mem_start_at = kNoCycle;   // memory controller started serving it
  Cycle mem_done_at = kNoCycle;    // last beat / B response left the memory
  Cycle completed_at = kNoCycle;   // response delivered to the master
  std::array<Cycle, kLatencyCauseCount> cause{};
  Cycle latency = 0;          // completed_at - issued_at
  Cycle audited_latency = 0;  // busy-period-normalized (vs the bound)
  Cycle bound = 0;            // 0 = bound not audited for this transaction
  bool error = false;         // completed with SLVERR/DECERR
  bool fault_overlap = false;  // port faulted/decoupled during its lifetime
  bool violation = false;      // audited_latency > bound
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  void append(const FlightRecord& rec);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Records in completion order, oldest first.
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  /// One JSON object per line, oldest first (completion order).
  void write_jsonl(std::ostream& os) const;

  void clear();

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // next overwrite position once full
  std::uint64_t dropped_ = 0;
  std::vector<FlightRecord> ring_;
};

}  // namespace axihc
