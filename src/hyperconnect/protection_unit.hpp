// Per-port protocol protection unit (PU).
//
// The TS polices transaction *rates*; the PU polices transaction
// *liveness*. Without it, a single misbehaving HA can wedge the whole
// interconnect despite reservation and decoupling: a hung W stream starves
// the shared write path head-of-line, a never-asserted RREADY fills the
// port's R queue and blocks the single read-return stream, and a malformed
// WLAST corrupts the equalizer's re-chunking. The PU (inspired by
// AXI-REALM's per-manager protection, see PAPERS.md) gives each port:
//
//  * in-flight sub-transaction tracking — one record per sub-request issued
//    by the TS, retired when the sub-burst's last R beat / B response
//    passes the merge logic;
//  * handshake-stall detectors — per-channel counters that accumulate only
//    while *this* port is the head-of-line blocker of a shared path, so
//    blame lands on the culprit and not on the victims queued behind it;
//  * a malformed-burst latch (WLAST misaligned with the advertised length);
//  * an end-to-end age backstop — the oldest in-flight sub-transaction
//    exceeding the timeout with no specific handshake to blame.
//
// The HyperConnect evaluates the PUs once per cycle; on expiry it
// synthesizes SLVERR completions from the PU's records, isolates the port
// (eFIFO fault latch) and stamps the FAULT_* registers. See
// HyperConnect::tick_protection / trigger_fault.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>

#include "common/types.hpp"
#include "hyperconnect/config.hpp"

namespace axihc {

/// The shared paths a port can stall head-of-line, in the order the PU
/// evaluates their counters.
enum class StallPath : std::uint8_t { kW, kR, kB };
inline constexpr std::size_t kStallPaths = 3;

class ProtectionUnit {
 public:
  /// One in-flight sub-transaction. `id` is the HA-side ID; `is_final`
  /// marks the sub-burst that carries the HA transaction's completion.
  struct SubRecord {
    TxnId id = 0;
    bool is_final = false;
    Cycle issued_at = 0;
  };

  ProtectionUnit(PortIndex port, const HcRuntime& rt) : port_(port), rt_(rt) {}

  void reset();

  // --- issue/retire bookkeeping (driven by the HyperConnect tick) ------
  void on_issue_read(TxnId id, bool is_final, Cycle now);
  void on_issue_write(TxnId id, bool is_final, Cycle now);
  void on_read_sub_complete();
  void on_write_sub_complete();

  // --- per-cycle handshake observations --------------------------------
  /// `stalled` = this port is the head of the shared path and refuses to
  /// make progress this cycle. false resets the counter (progress or not
  /// at the head).
  void observe_stall(StallPath path, bool stalled) {
    Cycle& count = stall_[static_cast<std::size_t>(path)];
    count = stalled ? count + 1 : 0;
  }
  /// Lazy catch-up: `cycles` skipped ticks, each of which would have
  /// observed a stall on `path`.
  void add_stall_cycles(StallPath path, Cycle cycles) {
    stall_[static_cast<std::size_t>(path)] += cycles;
  }
  /// Consecutive stalled cycles counted on `path`.
  [[nodiscard]] Cycle stall_cycles(StallPath path) const {
    return stall_[static_cast<std::size_t>(path)];
  }
  /// Latches a protocol violation (WLAST misaligned with burst length).
  void flag_malformed() { malformed_ = true; }

  /// Culprit-first evaluation: malformed bursts fault immediately; stall
  /// counters fault once they reach the timeout. kNone otherwise.
  [[nodiscard]] FaultCause evaluate_stalls() const;

  /// True while any stall counter is accumulating (or a malformed burst is
  /// latched) — the port is a fault suspect, and the age backstop of every
  /// port is suppressed until the suspect is resolved (victims of a shared
  /// wedge must not be blamed for their age).
  [[nodiscard]] bool suspected() const {
    return malformed_ || stall_[0] > 0 || stall_[1] > 0 || stall_[2] > 0;
  }

  /// Issue cycle of the oldest in-flight sub-transaction (age backstop).
  [[nodiscard]] std::optional<Cycle> oldest_issue() const;

  /// Amnesty after another port faulted (or after this port's latch was
  /// cleared): restamp every record to `now` so time spent wedged behind
  /// the culprit does not count against the timeout.
  void restamp(Cycle now);

  /// Clears the stall counters and the malformed latch (after the fault was
  /// latched in the runtime state, or on hypervisor re-arm).
  void clear_stalls();

  [[nodiscard]] const std::deque<SubRecord>& reads() const { return reads_; }
  [[nodiscard]] const std::deque<SubRecord>& writes() const {
    return writes_;
  }

 private:
  PortIndex port_;
  const HcRuntime& rt_;

  std::deque<SubRecord> reads_;
  std::deque<SubRecord> writes_;
  std::array<Cycle, kStallPaths> stall_{};  // indexed by StallPath
  bool malformed_ = false;
};

}  // namespace axihc
