// Shared machinery for AXI master models (hardware accelerators).
//
// Subclasses decide *what* to issue (their acceleration job); this base
// handles the AXI mechanics every master shares: pushing AR/AW, streaming W
// beats at one per cycle, draining R and B, tracking outstanding
// transactions against a configurable limit, and collecting per-transaction
// latency statistics.
//
// Ordering: by default the master asserts the in-order completion contract
// of today's platforms (§V-A "Compatibility") — responses must arrive in
// issue order. Constructed with `allow_out_of_order = true`, it instead
// matches responses by AXI ID (burst-granular reordering across IDs, the
// paper's future-work platform model).
//
// All HAs in the paper follow the shared-memory paradigm of §II: an AXI
// master port for data and an AXI-Lite-like slave port for control. The
// control side is modelled at a higher level (see src/hypervisor); this base
// models the master port.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "axi/axi.hpp"
#include "obs/histogram.hpp"
#include "obs/latency_audit.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"
#include "stats/stats.hpp"

namespace axihc {

/// Aggregate traffic/latency statistics of one master.
struct MasterStats {
  std::uint64_t reads_issued = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Completions carrying an error response (SLVERR/DECERR). Failed
  /// transactions are also counted in *_completed: they terminate normally
  /// at the protocol level, the error is in the response code. Transactions
  /// abandoned by abandon_in_flight() (port decoupled under the HA) are
  /// counted here too, but never complete.
  std::uint64_t reads_failed = 0;
  std::uint64_t writes_failed = 0;
  /// Responses that matched no in-flight transaction and were sunk. Zero in
  /// a healthy system; nonzero after a recovery reset, when responses for
  /// abandoned transactions arrive at a master that no longer knows them
  /// (the decoupler cannot shield the HA once the port is recoupled).
  std::uint64_t stray_r_beats = 0;
  std::uint64_t stray_b_resps = 0;
  /// Latency distributions in log-bucketed histograms (obs/histogram.hpp):
  /// count/min/max/mean/sum stay exact; percentiles are bucket-resolution
  /// (<= ~3.1% high).
  LogHistogram read_latency;   // AR issue -> final R beat
  LogHistogram write_latency;  // AW issue -> B response
};

class AxiMasterBase : public Component {
 public:
  static constexpr std::uint32_t kDefaultMaxOutstanding = 8;

  AxiMasterBase(std::string name, AxiLink& link,
                std::uint32_t max_outstanding_reads = kDefaultMaxOutstanding,
                std::uint32_t max_outstanding_writes = kDefaultMaxOutstanding,
                bool allow_out_of_order = false);

  void reset() override;

  /// Abandons every in-flight transaction and restarts the job engine,
  /// keeping the cumulative statistics. This is the software-visible HA
  /// reset of the recovery loop: while its port was decoupled the
  /// interconnect grounded the HA's signals, so responses for anything
  /// in flight will never arrive — exactly as under dynamic partial
  /// reconfiguration, the HA is reset before the hypervisor recouples the
  /// port. Abandoned transactions count as failed.
  void abandon_in_flight();

  [[nodiscard]] const MasterStats& stats() const { return stats_; }
  /// The link this master drives.
  [[nodiscard]] AxiLink& link() { return link_; }
  [[nodiscard]] std::uint32_t outstanding_reads() const {
    return static_cast<std::uint32_t>(reads_in_flight_.size());
  }
  [[nodiscard]] std::uint32_t outstanding_writes() const {
    return static_cast<std::uint32_t>(writes_in_flight_.size());
  }
  [[nodiscard]] bool idle() const {
    return reads_in_flight_.empty() && writes_in_flight_.empty() &&
           w_backlog_.empty();
  }

  /// Observability: error completions (and subclass milestones) become
  /// trace events. nullptr (the default) disables the hooks.
  void set_trace(EventTrace* trace) { trace_ = trace; }

  /// Latency auditor hook: every completed transaction (read final beat,
  /// write B response) is reported with its original request and failure
  /// flag. `port` identifies this master's interconnect slave port.
  /// nullptr (the default) disables at one branch per completion.
  void set_latency_audit(LatencyAudit* audit, PortIndex port) {
    audit_ = audit;
    audit_port_ = port;
  }

  /// Registers traffic counters and outstanding-transaction gauges with
  /// `reg`. Virtual so subclasses can append their own (jobs done, frames).
  virtual void register_metrics(MetricsRegistry& reg);

  void append_digest(StateDigest& d) const override;

 protected:
  /// True when an AR can be pushed this cycle without exceeding the
  /// outstanding-read limit.
  [[nodiscard]] bool can_issue_read() const;

  /// Issues a read burst. Requires can_issue_read().
  void issue_read(Addr addr, BeatCount beats, Cycle now);

  [[nodiscard]] bool can_issue_write() const;

  /// Issues a write burst whose beats carry `fill_seed + beat_index` as
  /// data. Requires can_issue_write().
  void issue_write(Addr addr, BeatCount beats, Cycle now,
                   std::uint64_t fill_seed = 0);

  /// Issues a write burst with explicit per-beat data (size must equal
  /// `beats`). Requires can_issue_write().
  void issue_write_data(Addr addr, const std::vector<std::uint64_t>& data,
                        Cycle now);

  /// Moves one W beat into the channel and drains R/B. Subclasses call this
  /// once per tick, after deciding what to issue.
  void pump(Cycle now);

  /// True when pump(now) would be a no-op this cycle: no W beat can move and
  /// nothing is waiting on R or B. Subclasses use this in their
  /// next_activity() certificates.
  [[nodiscard]] bool pump_idle() const {
    return (w_backlog_.empty() || !link_.w.can_push()) &&
           !link_.r.can_pop() && !link_.b.can_pop();
  }

  /// Hook: called for every read-data beat received.
  virtual void on_read_beat(const RBeat& beat, Cycle now);

  /// Hook: called when the final beat of a read burst arrives.
  virtual void on_read_complete(const AddrReq& req, Cycle now);

  /// Hook: called when a write burst's B response arrives.
  virtual void on_write_complete(const AddrReq& req, Cycle now);

  /// Subclass reset hook (base reset() calls it after clearing its state).
  virtual void reset_master() {}

  /// Beats-per-word helper: all masters here use the 64-bit data bus.
  static constexpr std::uint8_t kBusSizeLog2 = 3;
  static constexpr std::uint64_t kBusBytes = 1u << kBusSizeLog2;

  /// Master-side IDs stay below 2^16 so interconnect ID-extension modes can
  /// prepend the port number (IDs wrap, skipping 0).
  static constexpr TxnId kIdLimit = 1u << 16;

  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled();
  }
  [[nodiscard]] EventTrace* trace() { return trace_; }

 private:
  struct InFlight {
    AddrReq req;
    BeatCount beats_left = 0;
    bool error = false;  // any beat so far carried SLVERR/DECERR
  };

  TxnId next_id();
  /// Index in reads_in_flight_ the R beat belongs to (0 when in-order;
  /// ID-matched when out-of-order is allowed). kStraySlot when the beat
  /// matches nothing in flight — a stale response to a reset master.
  static constexpr std::size_t kStraySlot = static_cast<std::size_t>(-1);
  std::size_t read_slot_for(const RBeat& beat);
  std::size_t write_slot_for(const BResp& resp);

  AxiLink& link_;
  std::uint32_t max_or_;
  std::uint32_t max_ow_;
  bool allow_ooo_;
  TxnId next_id_ = 1;

  std::deque<InFlight> reads_in_flight_;
  std::deque<InFlight> writes_in_flight_;  // beats_left unused; B order
  std::deque<WBeat> w_backlog_;

  MasterStats stats_;
  EventTrace* trace_ = nullptr;
  LatencyAudit* audit_ = nullptr;
  PortIndex audit_port_ = 0;
};

}  // namespace axihc
