// Builds a complete runnable system from an INI experiment description —
// the engine behind the axihc CLI (tools/axihc.cpp). Lets users run
// interconnect experiments without writing C++:
//
//   [system]
//   interconnect = hyperconnect      ; hyperconnect | smartconnect
//   platform = zcu102                ; zcu102 | zynq7020
//   cycles = 2000000
//
//   [hyperconnect]
//   reservation_period = 2000
//   budgets = 64 7
//
//   [ha0]
//   type = dnn                       ; dma | traffic | dnn
//   scale = 16
//
//   [ha1]
//   type = dma
//   mode = readwrite                 ; read | write | readwrite | copy
//
// Every section and key an experiment may hold, with its default and range,
// is a row of the config key table in config/keys.cpp; a section or key
// without a row is rejected. HAs take interconnect ports in file order, so
// the i-th [haN] section must be named [ha<i>] (likewise [faultN], [memN]).
//
// [faultN] sections inject faults: a FaultInjector is spliced between the
// HA and the interconnect on the targeted port, and "mem_slverr" entries
// instead configure an SLVERR window (base/bytes) on the memory controller.
// [system] fault_seed seeds the injectors; [system] mem_bytes and [memN]
// bound the decoded address space (accesses beyond it get DECERR; entries
// that overlap are rejected);
// [hyperconnect] prot_timeout arms the per-port protection units.
//
// A [recovery] section (hyperconnect only) assembles the full software
// stack behind the control interface — RegisterMaster, driver, Hypervisor
// watchdog, RecoveryManager — so detected faults, and ports that overrun
// max_txns_per_poll, start closed-loop recovery episodes (src/recovery)
// instead of staying quarantined by their protection unit. Its
// probation_window must span at least one watchdog poll_period, and its
// backoff_max must not be below backoff_base.
// [observe] sizes the observability buffers (trace_capacity,
// flight_capacity); what is observed is chosen by the caller (the axihc
// flags --trace-out, --metrics-out, --sample-every, --latency-audit) through
// observe_config(). Observing never changes the simulated state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "axi/monitor.hpp"
#include "config/ini.hpp"
#include "driver/register_master.hpp"
#include "fault/fault_injector.hpp"
#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"
#include "ha/traffic_gen.hpp"
#include "hypervisor/hypervisor.hpp"
#include "obs/latency_audit.hpp"
#include "obs/metrics.hpp"
#include "platform/platform.hpp"
#include "prove/prove.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/trace.hpp"
#include "soc/soc.hpp"

namespace axihc {

/// Observability settings. The two capacities come from the [observe]
/// section; the switches are set by the caller (axihc flags, sweep and
/// campaign runners). Both halves are independent: `trace` records typed
/// events for the Chrome-trace export, `metrics` samples the registry every
/// `sample_every` cycles.
struct ObserveConfig {
  bool trace = false;
  bool metrics = false;
  Cycle sample_every = 1000;
  std::size_t trace_capacity = 0;  // 0 = unbounded
  /// Per-transaction latency provenance + live WCLA bound auditing
  /// (src/obs/latency_audit.hpp).
  bool latency_audit = false;
  /// The live WCLA bound check alone, without provenance: what sweep and
  /// campaign rows read. Implied by latency_audit.
  bool latency_bounds = false;
  /// Flight-recorder ring capacity (completed transactions retained).
  std::size_t flight_capacity = 0;
  [[nodiscard]] bool any() const {
    return trace || metrics || latency_audit || latency_bounds;
  }
};

/// A fully-assembled experiment: the SoC plus the configured HAs, ready to
/// run. Owns everything.
class ConfiguredSystem {
 public:
  explicit ConfiguredSystem(const IniFile& ini);

  /// Builds the system with `scenario` instead of the file's [faultN]
  /// sections and fault_seed — the campaign runner's entry point (each run
  /// reuses one base description under a generated scenario).
  ConfiguredSystem(const IniFile& ini, const FaultScenario& scenario);

  /// Runs for the configured [system] cycles (or `override_cycles` if
  /// nonzero) and returns the simulated cycle count.
  Cycle run(Cycle override_cycles = 0);

  [[nodiscard]] SocSystem& soc() { return *soc_; }
  [[nodiscard]] const Platform& platform() const { return platform_; }
  [[nodiscard]] std::size_t ha_count() const { return masters_.size(); }
  [[nodiscard]] const AxiMasterBase& ha(std::size_t i) const;
  [[nodiscard]] const std::string& ha_type(std::size_t i) const;

  /// Renders the per-HA statistics table (markdown).
  [[nodiscard]] std::string report() const;

  /// Assembles the static-prover input (src/prove) from the elaborated
  /// system: the WCLA-side analysis config, platform timing, the decode
  /// map, and the per-HA traffic models and job windows recorded by add_ha.
  [[nodiscard]] ProveInput prove_input() const;
  /// Runs the static predictability certifier (src/prove) — zero simulated
  /// cycles; see ProveReport for verdicts and the certificate.
  [[nodiscard]] ProveReport prove() const;

  [[nodiscard]] std::size_t injector_count() const {
    return injectors_.size();
  }
  [[nodiscard]] const FaultInjector& injector(std::size_t i) const;

  /// The [recovery] software stack, or nullptr when the section is absent.
  [[nodiscard]] Hypervisor* hypervisor() { return hypervisor_.get(); }
  [[nodiscard]] const Hypervisor* hypervisor() const {
    return hypervisor_.get();
  }
  [[nodiscard]] RecoveryManager* recovery() { return recovery_.get(); }
  [[nodiscard]] const RecoveryManager* recovery() const {
    return recovery_.get();
  }

  /// Mutable observability settings. Changes only take effect before the
  /// first run() call (the layer is wired lazily on first run).
  [[nodiscard]] ObserveConfig& observe_config() { return observe_; }

  /// The recorded event stream (empty unless observe trace was on).
  [[nodiscard]] const EventTrace& trace() const { return trace_; }
  /// The sampler, or nullptr when metrics were never enabled.
  [[nodiscard]] const MetricsSampler* sampler() const {
    return sampler_.get();
  }
  /// The latency auditor, or nullptr when observe latency_audit and
  /// latency_bounds were off.
  [[nodiscard]] const LatencyAudit* latency_audit() const {
    return audit_.get();
  }
  /// AXI protocol violations seen on the HA links: a latency_audit run
  /// watches each with a passive AxiMonitor (0 otherwise).
  [[nodiscard]] std::uint64_t protocol_violations() const;

  /// Chrome trace-event JSON (Perfetto-loadable): the event stream plus the
  /// sampled metrics as counter tracks.
  void write_trace(std::ostream& os) const;
  /// Sampled metrics time series as CSV.
  void write_metrics_csv(std::ostream& os) const;

 private:
  /// Shared constructor body; `scenario_override` (campaign runs) replaces
  /// the file's [faultN] sections and fault_seed.
  void build(const IniFile& ini, const FaultScenario* scenario_override);
  /// Hands the trace to every instrumented component, attaches the latency
  /// auditor (and, for a full audit, a protocol monitor per HA link) and,
  /// when metrics are on, registers all metrics (the APM-style
  /// `apm.*` byte counters included) and attaches the sampler. Called once,
  /// from the first run() with observability requested.
  void wire_observability();
  void add_ha(const IniSection& section, PortIndex port);
  /// Assembles the [recovery] hypervisor stack on the control link.
  void wire_recovery(const IniSection& rec);
  /// The link the HA on `port` should master: the interconnect port itself,
  /// or a fresh intermediate link behind a FaultInjector when the scenario
  /// targets this port.
  AxiLink& attach_port(PortIndex port);

  Platform platform_;
  Cycle configured_cycles_ = 0;
  /// Traffic model and job windows per attached HA (recorded by add_ha for
  /// the prover).
  std::vector<ProveHaModel> prove_has_;
  std::unique_ptr<SocSystem> soc_;
  std::vector<std::unique_ptr<AxiMasterBase>> masters_;
  std::vector<std::string> ha_types_;
  FaultScenario scenario_;
  std::vector<std::unique_ptr<AxiLink>> fault_links_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;

  // [recovery] stack (all null when the section is absent).
  std::unique_ptr<RegisterMaster> register_master_;
  std::unique_ptr<HyperConnectDriver> driver_;
  std::unique_ptr<Hypervisor> hypervisor_;
  std::unique_ptr<RecoveryManager> recovery_;

  ObserveConfig observe_;
  bool observability_wired_ = false;
  EventTrace trace_;
  MetricsRegistry registry_;
  std::unique_ptr<MetricsSampler> sampler_;
  std::unique_ptr<LatencyAudit> audit_;
  // Declared after the links they watch, so they detach before those go.
  std::vector<std::unique_ptr<AxiMonitor>> monitors_;
};

/// Parses + builds in one call (throws ModelError with a line/section
/// message on bad configs).
[[nodiscard]] std::unique_ptr<ConfiguredSystem> build_system(
    const std::string& ini_text);

}  // namespace axihc
