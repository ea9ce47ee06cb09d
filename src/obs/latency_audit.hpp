// Live WCLA bound auditing and per-transaction latency provenance.
//
// The analysis layer (src/analysis/wcla.*) proves per-port latency bounds;
// this module closes the loop at runtime in two parts:
//
//  * The bound check hears three events per transaction (eFIFO accept,
//    port disturbance, completion), compares the observed latency against
//    the analytic bound and keeps the counters. A violation is a soundness
//    bug in either the analysis or the interconnect, surfaced as a
//    first-class metric and trace instant. Sweep and campaign rows read
//    only this part, and their runs build it alone.
//  * Provenance stamps every transaction at each lifecycle hop (master
//    issue -> eFIFO accept -> final sub issued -> EXBAR grant ->
//    HyperConnect exit -> memory service -> response delivered), attributes
//    every cycle of its latency to a cause bucket, and keeps histograms and
//    the flight recorder. `axihc --latency-audit` builds both parts; a flight
//    record's bound, audited latency and violation come from the bound
//    check.
//
// How the hops are matched without touching simulated state: on an in-order
// HyperConnect every pipeline stage (TS output stage, EXBAR output register,
// master eFIFO, in-order memory queue) is a FIFO per port or per direction,
// so the audit mirrors each stage with its own token queue and matches
// events positionally. Nothing is written into AddrReq or any component —
// state digests are bit-identical with the auditor on or off, and the whole
// layer costs one pointer test per hook site when detached.
//
// What is audited: the analytic bound assumes the request arrives to an
// otherwise-idle own port (the validation fixtures use max_outstanding = 1
// victims). Real workloads pipeline requests, so raw end-to-end latency
// includes self-queuing behind the port's own earlier requests — delay the
// port asked for, not interference. The auditor therefore checks the
// busy-period-normalized latency: completion minus max(issue, previous
// completion on the same port). Both raw and normalized values are recorded.
// The bound is that of the beat count the HyperConnect accepted (a fault
// injector may rewrite AxLEN between the master and the port).
//
// Excluded from the bound check (still recorded): error completions,
// transactions whose port faulted or was decoupled during their lifetime,
// and configurations the analysis does not model (out-of-order mode,
// FR-FCFS memory scheduling, SmartConnect).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/wcla.hpp"
#include "axi/axi.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/latency_cause.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace axihc {

class LatencyAudit final {
 public:
  /// The full audit (bound check and provenance) by default;
  /// `provenance = false` builds the bound check alone, whose hooks are
  /// on_accept, on_port_disturbed and on_complete (the other hooks return at
  /// once) and whose results are the counters, max_latency_ratio and
  /// max_audited.
  LatencyAudit(PortIndex num_ports, std::size_t flight_capacity,
               bool provenance = true);

  /// Master switch. The hooks record unconditionally: every hook site
  /// guards with `audit_ != nullptr && audit_->enabled()`, so an attached-
  /// but-disabled auditor costs an inline load + branch per hook site
  /// (benchmarked by BM_AuditIdleAttached, CI-gated like the observability
  /// pair).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Whether this auditor records provenance: hook sites skip the
  /// provenance-only hooks (sub issue, stall cause, grant, exit, memory
  /// stage) when it does not.
  [[nodiscard]] bool provenance() const { return provenance_; }

  /// Enables bound checking against wcrt_read/wcrt_write for
  /// the given interconnect/platform model. Without a bound model the audit
  /// still collects provenance, histograms and flight records.
  void set_bound_model(HcAnalysisConfig cfg, AnalysisPlatform platform);

  /// Test hook: forces every bound to `bound` (0 = use the model). A
  /// deliberately-tightened bound must make the auditor fire — that is the
  /// auditor's own fault-injection test.
  void set_bound_override(Cycle bound) { bound_override_ = bound; }

  /// Trace sink for flow events (request->response arrows), violation
  /// instants. nullptr disables.
  void set_trace(EventTrace* trace) { trace_ = trace; }
  /// Source names used on trace events (defaults: "hc.portN" / "mem").
  void set_port_source(PortIndex port, std::string source);
  void set_mem_source(std::string source) { mem_source_ = std::move(source); }

  void register_metrics(MetricsRegistry& reg);

  // --- hooks: HyperConnect -------------------------------------------------
  /// TS popped `orig` from the port's eFIFO (split begins).
  void on_accept(PortIndex port, bool is_write, const AddrReq& orig, Cycle now);
  /// TS issued one sub-request into its output stage.
  void on_sub_issue(PortIndex port, bool is_write, bool is_final, Cycle now);
  /// The port's active split changed stall cause at `now` (classified by
  /// the HyperConnect after its issue loop). Charges [last change, now) to
  /// the previous cause: span-based, so fast-forwarded stretches and
  /// unchanged busy cycles cost nothing.
  void on_stall_cause(PortIndex port, bool is_write, LatencyCause cause,
                      Cycle now);
  /// EXBAR granted this port's oldest staged sub-request.
  void on_grant(PortIndex port, bool is_write, Cycle now);
  /// A sub-request left the HyperConnect into the master eFIFO.
  void on_hc_exit(bool is_write, Cycle now);
  /// The port faulted or was decoupled: close its stall classifiers and
  /// mark its in-flight transactions fault-affected (excluded from bounds).
  void on_port_disturbed(PortIndex port, Cycle now);

  // --- hooks: memory controller (in-order scheduling only) -----------------
  void on_mem_start(bool is_write, Cycle now);
  void on_mem_done(Cycle now);

  // --- hooks: masters ------------------------------------------------------
  /// Response delivered. `req` is the original HA-side request.
  void on_complete(PortIndex port, bool is_write, const AddrReq& req,
                   bool failed, Cycle now);

  // --- results: bound check ------------------------------------------------
  [[nodiscard]] std::uint64_t transactions() const { return txns_; }
  [[nodiscard]] std::uint64_t bound_checked() const { return bound_checked_; }
  [[nodiscard]] std::uint64_t bound_violations() const {
    return bound_violations_;
  }
  [[nodiscard]] std::uint64_t excluded() const { return excluded_; }
  [[nodiscard]] bool bounds_enabled() const { return bound_model_.has_value(); }

  /// Worst audited-latency / bound ratio observed across all checked
  /// transactions (0 when none was checked). <= 1.0 means every observed
  /// latency respected its bound.
  [[nodiscard]] double max_latency_ratio() const { return max_ratio_; }

  /// Worst busy-period-normalized latency among the port+dir's checked
  /// transactions.
  [[nodiscard]] Cycle max_audited(PortIndex port, bool is_write) const;
  /// The bound a `beats`-beat transaction on port+dir is checked against:
  /// the override if set, else the number `--prove` certifies for it (0
  /// without a bound model).
  [[nodiscard]] Cycle bound_for(PortIndex port, bool is_write,
                                BeatCount beats) const;

  // --- results: provenance (empty without it) ------------------------------
  [[nodiscard]] const FlightRecorder& flight_recorder() const {
    return flight_;
  }

  [[nodiscard]] const LogHistogram& histogram(PortIndex port,
                                              bool is_write) const;
  [[nodiscard]] Cycle max_latency(PortIndex port, bool is_write) const;

  /// Per-port roll-up table: count, p50/p99/p99.9/max, audited max vs bound,
  /// slack, violations, and the cause breakdown.
  void write_rollup(std::ostream& os) const;

 private:
  // --- bound check ---------------------------------------------------------
  /// An accepted transaction awaiting its completion.
  struct OpenTxn {
    TxnId id = 0;
    BeatCount beats = 0;  // as accepted (the bound's beat count)
    bool fault_overlap = false;
    Cycle issued_at = kNoCycle;
    Cycle accepted_at = kNoCycle;
  };
  // The open queues are vectors: they hold at most a port's outstanding
  // transactions, completions erase near the front, and a deque of
  // FlightRecords would allocate a block every two accepts.
  struct BoundState {
    std::vector<OpenTxn> open;  // accepted, not yet completed
    Cycle max_audited = 0;
    Cycle max_bound = 0;  // the largest bound a transaction was checked against
    std::uint64_t violations = 0;
  };
  /// The bound check's judgement of one completion, which a full audit
  /// copies into the flight record.
  struct Verdict {
    Cycle t0 = 0;  // issue cycle (accept or completion when unstamped)
    Cycle audited_latency = 0;
    Cycle bound = 0;  // 0 = not checked
    BeatCount beats = 0;
    bool fault_overlap = false;
    bool violation = false;
  };
  Verdict check_bound(PortIndex port, bool is_write, const AddrReq& req,
                      bool failed, Cycle now);

  // --- provenance ----------------------------------------------------------
  struct StageToken {
    PortIndex port = 0;
    bool is_final = false;
  };

  struct PortDirState {
    // Accepted, not yet completed: the same transactions, in the same order,
    // as the bound check's open queue.
    std::vector<FlightRecord> open;
    // Stall classifier for the (single) active split of this port+dir:
    // [last_eval, next flush) belongs to `frozen`, flushed at each cause
    // change, the final issue, a disturbance or the owner's completion.
    bool stall_active = false;
    Cycle last_eval = 0;
    LatencyCause frozen = LatencyCause::kPipeline;
    std::deque<bool> ts_stage;  // is_final, per sub in the TS output stage
    LogHistogram hist;
    std::array<std::uint64_t, kLatencyCauseCount> cause_total{};
    Cycle max_latency = 0;
  };

  [[nodiscard]] static std::size_t slot(PortIndex port, bool is_write) {
    return static_cast<std::size_t>(port) * 2 + (is_write ? 1 : 0);
  }
  [[nodiscard]] BoundState& bounds(PortIndex port, bool is_write);
  [[nodiscard]] const BoundState& bounds(PortIndex port, bool is_write) const;
  [[nodiscard]] PortDirState& state(PortIndex port, bool is_write);
  [[nodiscard]] const PortDirState& state(PortIndex port,
                                          bool is_write) const;
  [[nodiscard]] std::string port_source(PortIndex port) const;
  void flush_stall(PortDirState& pd, Cycle now);
  /// First open record of `pd` whose `field` is unset and whose
  /// prerequisite hop is set — hop events fill records strictly in order.
  FlightRecord* fill_target(PortDirState& pd, Cycle FlightRecord::*field);
  void record_provenance(PortIndex port, bool is_write, const AddrReq& req,
                         bool failed, const Verdict& v, Cycle now);

  bool enabled_ = false;
  bool provenance_;
  PortIndex num_ports_;

  std::vector<BoundState> bound_state_;  // [port * 2 + is_write]
  std::vector<Cycle> prev_completion_;   // per port, any direction
  std::optional<HcAnalysisConfig> bound_model_;
  AnalysisPlatform bound_platform_;
  Cycle bound_override_ = 0;
  mutable std::map<std::uint64_t, Cycle> bound_cache_;
  std::uint64_t txns_ = 0;
  std::uint64_t bound_checked_ = 0;
  std::uint64_t bound_violations_ = 0;
  std::uint64_t excluded_ = 0;
  std::uint64_t untracked_ = 0;
  double max_ratio_ = 0.0;

  std::vector<PortDirState> per_port_dir_;  // [port * 2 + is_write]
  std::array<std::deque<StageToken>, 2> xbar_stage_;   // [is_write]
  std::array<std::deque<StageToken>, 2> mem_pending_;  // [is_write]
  std::optional<StageToken> mem_current_;
  bool mem_current_write_ = false;

  EventTrace* trace_ = nullptr;
  std::vector<std::string> port_sources_;
  std::string mem_source_ = "mem";
  std::uint64_t flow_seq_ = 0;

  FlightRecorder flight_;

  /// Cap on open-record queues: recovery resets abandon master transactions
  /// whose completions never arrive; their stale records are pruned here.
  static constexpr std::size_t kOpenCap = 256;
};

}  // namespace axihc
