// AXI HyperConnect — the paper's contribution (§V): a predictable,
// hypervisor-level AXI interconnect.
//
// Architecture (Fig. 2): each HA-facing slave port is an eFIFO feeding a
// Transaction Supervisor; all TS modules feed the EXBAR crossbar, whose
// output goes through a master eFIFO to the FPGA-PS interface. A central
// unit recharges reservation budgets synchronously, and a control AXI slave
// interface exposes the register file for run-time reconfiguration by the
// hypervisor.
//
// Pipeline latency (matches Fig. 3(a)):
//   AR/AW : 4 cycles (slave eFIFO, TS, EXBAR, master eFIFO — 1 each)
//   R/W/B : 2 cycles (slave eFIFO + master eFIFO; TS and EXBAR handle these
//           channels proactively, adding no latency)
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "hyperconnect/config.hpp"
#include "hyperconnect/efifo.hpp"
#include "hyperconnect/exbar.hpp"
#include "hyperconnect/protection_unit.hpp"
#include "hyperconnect/register_file.hpp"
#include "hyperconnect/transaction_supervisor.hpp"
#include "interconnect/interconnect.hpp"
#include "obs/latency_audit.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace axihc {

class HyperConnect final : public Interconnect {
 public:
  HyperConnect(std::string name, HyperConnectConfig cfg = {});

  void tick(Cycle now) override;
  void reset() override;
  void register_with(Simulator& sim) override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  /// The control AXI slave interface (AXI-Lite-style: single-beat
  /// transactions). In the considered framework only the hypervisor masters
  /// this link.
  [[nodiscard]] AxiLink& control_link() { return control_link_; }

  /// Current run-time configuration (read-only observation).
  [[nodiscard]] const HcRuntime& runtime() const { return runtime_; }

  /// Direct register access, bypassing the control bus. This is the
  /// test/bench backdoor; production configuration goes through the driver
  /// over control_link().
  [[nodiscard]] HcRegisterFile& registers_backdoor() { return regfile_; }

  /// Remaining reservation budget of a port in the current window.
  [[nodiscard]] std::uint32_t budget_left(PortIndex i) const;

  /// Number of synchronous budget recharges performed by the central unit.
  [[nodiscard]] std::uint64_t recharges() const { return recharges_; }

  [[nodiscard]] const HyperConnectConfig& config() const { return cfg_; }

  [[nodiscard]] const TransactionSupervisor& supervisor(PortIndex i) const;

  /// Read-only view of a port's protection unit (fault diagnostics).
  [[nodiscard]] const ProtectionUnit& protection(PortIndex i) const;

  /// Port fault latch (production software reads the FAULT_* registers;
  /// this is the test/bench observation point).
  [[nodiscard]] const PortFault& port_fault(PortIndex i) const;

  /// Faults latched by the protection units since reset (all ports).
  [[nodiscard]] std::uint64_t faults_latched() const {
    return faults_latched_;
  }

  /// Observability: records typed events into `trace` — window recharges
  /// with per-port budget accounting, EXBAR grants, decouple/recouple
  /// transitions and fault instants. nullptr (the default) disables the
  /// hooks at the cost of one branch each.
  void set_trace(EventTrace* trace) { trace_ = trace; }

  /// Attaches the latency auditor (src/obs/latency_audit.*): the tick loop
  /// reports eFIFO accepts and port disturbances to it and, when it records
  /// provenance, sub-transaction issues, stall-cause changes, EXBAR grants
  /// and master-side exits. nullptr (the default) disables at one branch
  /// per site. The audit mutates no HyperConnect state: the state digest is
  /// identical with it on or off.
  void set_latency_audit(LatencyAudit* audit) { audit_ = audit; }

  /// Registers this instance's gauges and counters (per-port budget
  /// remaining, eFIFO occupancy, grants/beats, outstanding sub-transactions,
  /// fault telemetry) with `reg`. The readers borrow `this`, which must
  /// outlive the registry's sampling.
  void register_metrics(MetricsRegistry& reg);

  /// Base port counters plus reservation/protection state (budgets,
  /// recharges, latched faults, per-port sub-transaction counts).
  void append_digest(StateDigest& d) const override;

 private:
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled();
  }
  [[nodiscard]] bool auditing() const {
    return audit_ != nullptr && audit_->enabled();
  }
  [[nodiscard]] std::string port_source(PortIndex i) const;

  void tick_control_interface();
  void tick_central_unit(Cycle now);
  void tick_protection(Cycle now);
  void trigger_fault(PortIndex i, FaultCause cause, Cycle now);
  // Age backstop deadline: lowers age_due_ for a record stamped at `stamp`.
  void lower_age_due(Cycle stamp);
  static constexpr PortIndex kNoPort = ~PortIndex{0};
  // Ports heading the shared R/B return paths (kNoPort: unroutable head,
  // which the tick rejects).
  [[nodiscard]] PortIndex r_head_port() const {
    if (runtime_.out_of_order) {
      // ID-extension mode: the source port is encoded in the upper ID bits.
      const auto port =
          static_cast<PortIndex>(master_link().r.front().id >> kIdPortShift);
      return port < num_ports() ? port : kNoPort;
    }
    const auto& route = exbar_.read_route();
    return route.empty() ? kNoPort : route.front().port;
  }
  [[nodiscard]] PortIndex b_head_port() const {
    if (runtime_.out_of_order) {
      const auto port =
          static_cast<PortIndex>(master_link().b.front().id >> kIdPortShift);
      return port < num_ports() ? port : kNoPort;
    }
    const auto& route = exbar_.b_route();
    return route.empty() ? kNoPort : route.front();
  }
  // Fills `heads` (indexed by StallPath) with the port whose PU stall
  // counter each shared path grows on the next tick, kNoPort where the path
  // has nothing to do. False when some path would move data instead.
  [[nodiscard]] bool stall_heads(
      std::array<PortIndex, kStallPaths>& heads) const;
  // Lazy catch-up of `skipped` ticks on the blocked path heads.
  void catch_up_stalls(Cycle skipped);
  // Latency-audit reporting from the TS issue loop.
  void audit_accept(PortIndex i, bool is_write, const AddrReq& orig,
                    Cycle now);
  [[nodiscard]] LatencyCause classify_stall(
      PortIndex i, std::uint32_t outstanding,
      const TimingChannel<AddrReq>& stage) const;
  void report_stall_cause(PortIndex i, bool is_write, LatencyCause cause,
                          Cycle now);
  void tick_r_path();
  void tick_b_path();
  void tick_w_path();

  HyperConnectConfig cfg_;
  HcRuntime runtime_;

  std::vector<Efifo> efifos_;  // one per slave port, wrapping port links
  std::vector<std::unique_ptr<TransactionSupervisor>> ts_;
  std::vector<std::unique_ptr<ProtectionUnit>> pu_;
  // Pipeline stages: TS output (one per port) and EXBAR output registers.
  std::vector<std::unique_ptr<TimingChannel<AddrReq>>> ts_ar_;
  std::vector<std::unique_ptr<TimingChannel<AddrReq>>> ts_aw_;
  std::vector<TimingChannel<AddrReq>*> ts_ar_ptrs_;
  std::vector<TimingChannel<AddrReq>*> ts_aw_ptrs_;
  // Sub-requests held in the TS output stages, per direction ([0] = AR,
  // [1] = AW): +1 per TS issue, -1 per EXBAR grant. While a count is zero
  // the EXBAR has nothing to grant and its scan is skipped.
  std::array<std::uint32_t, 2> staged_{};
  TimingChannel<AddrReq> xbar_ar_;
  TimingChannel<AddrReq> xbar_aw_;
  Exbar exbar_;

  // Synthesized SLVERR completions a faulted port still owes its HA but
  // could not push immediately (full R/B queue at fault time). Drained into
  // the port link as capacity frees, so a completion is never silently
  // dropped — a lost completion wedges the HA forever on an in-flight
  // transaction. Discarded when the port is decoupled: the HA behind a
  // decoupled port is reset before recoupling.
  std::vector<std::deque<RBeat>> owed_r_;
  std::vector<std::deque<BResp>> owed_b_;
  // Completions queued across all owed_r_/owed_b_ deques: lets the fault-
  // free tick skip the per-port drain walk with one compare.
  std::size_t owed_pending_ = 0;

  // The per-port reservation budgets and the next recharge-boundary cache.
  // The cache keeps the `now % period == 0` divide off the per-cycle path —
  // it fires only on actual boundaries (and after a runtime period change,
  // detected via recharge_period_).
  std::vector<std::uint32_t> budget_left_;
  Cycle recharge_next_ = 0;
  Cycle recharge_period_ = 0;  // period recharge_next_ was computed for
  std::uint64_t recharges_ = 0;
  std::uint64_t faults_latched_ = 0;

  // Lazy catch-up: the cycle the next tick is due at when none is skipped.
  // A later tick first adds the skipped cycles to the stall counters of the
  // blocked path heads (next_activity certified nothing else happens).
  Cycle next_tick_ = 0;
  // Age backstop deadline: a lower bound on the first cycle an unfaulted
  // port's oldest record turns 2 * PROT_TIMEOUT old, valid while
  // age_timeout_ equals the timeout. Lowered on every sub-issue and re-arm
  // (the port's records rejoin the scan restamped); the per-port scan runs
  // only once it is reached.
  Cycle age_due_ = 0;
  Cycle age_timeout_ = 0;

  HcRegisterFile regfile_;
  AxiLink control_link_;
  EventTrace* trace_ = nullptr;
  LatencyAudit* audit_ = nullptr;
  // Stall cause last reported to the auditor per port and direction
  // ([port * 2 + is_write]); on_stall_cause fires only when it changes.
  std::vector<LatencyCause> reported_cause_;
};

}  // namespace axihc
