// Header-only hook interface between simulated components and the latency
// auditor (src/obs/latency_audit.*).
//
// Components (HyperConnect, memory controller, masters) hold a
// LatencyAuditHooks* and invoke the hooks through it; the concrete
// LatencyAudit lives in axihc_obs, which links axihc_analysis, which links
// the component libraries — so the components cannot link axihc_obs back
// without a cycle. This pure-virtual interface breaks the cycle: including
// it creates no link dependency, and an unattached component pays one null
// test per hook site.
#pragma once

#include <cstdint>

#include "axi/axi.hpp"
#include "common/types.hpp"

namespace axihc {

/// Where a transaction's cycles went. Every completed transaction's buckets
/// sum exactly to its end-to-end latency (see docs/OBSERVABILITY.md).
enum class LatencyCause : std::uint8_t {
  kPipeline = 0,    // fixed channel/stage latencies on the request path
  kEfifoQueue,      // waiting behind earlier own-port requests (HA link+eFIFO)
  kBudgetWait,      // reservation budget exhausted at the TS
  kArbitration,     // waiting for an EXBAR grant (round-robin loss)
  kBackpressure,    // outstanding limit / downstream stage full
  kMemQueue,        // queued at the memory controller behind other commands
  kMemService,      // DRAM service (first-word latency + streaming + refresh)
  kReturnPath,      // response propagation back to the master
  kRecoveryStall,   // quarantine/recovery residual (fault-affected txns only)
  kCount,
};

inline constexpr std::size_t kLatencyCauseCount =
    static_cast<std::size_t>(LatencyCause::kCount);

[[nodiscard]] const char* latency_cause_name(LatencyCause c);

class LatencyAuditHooks {
 public:
  virtual ~LatencyAuditHooks() = default;

  /// Non-virtual on purpose: every hook site guards with
  /// `audit_ != nullptr && audit_->enabled()`, so a disabled attached
  /// auditor costs an inline load+branch — never a virtual dispatch.
  [[nodiscard]] bool enabled() const { return enabled_; }

  // --- HyperConnect --------------------------------------------------------
  /// TS popped `orig` from the port's eFIFO (split begins).
  virtual void on_accept(PortIndex port, bool is_write, const AddrReq& orig,
                         Cycle now) = 0;
  /// TS issued one sub-request into its output stage.
  virtual void on_sub_issue(PortIndex port, bool is_write, bool is_final,
                            Cycle now) = 0;
  /// The reason the port's active split cannot issue changed to `cause`
  /// at `now`. Reported only on a change; a split starts at kPipeline.
  virtual void on_stall_cause(PortIndex port, bool is_write,
                              LatencyCause cause, Cycle now) = 0;
  /// EXBAR granted this port's oldest staged sub-request.
  virtual void on_grant(PortIndex port, bool is_write, Cycle now) = 0;
  /// A sub-request left the HyperConnect into the master eFIFO.
  virtual void on_hc_exit(bool is_write, Cycle now) = 0;
  /// The port faulted or was decoupled.
  virtual void on_port_disturbed(PortIndex port, Cycle now) = 0;

  // --- memory controller (in-order scheduling only) ------------------------
  virtual void on_mem_start(bool is_write, Cycle now) = 0;
  virtual void on_mem_done(Cycle now) = 0;

  // --- masters -------------------------------------------------------------
  /// Response delivered. `req` is the original HA-side request.
  virtual void on_complete(PortIndex port, bool is_write, const AddrReq& req,
                           bool failed, Cycle now) = 0;

 protected:
  bool enabled_ = false;
};

}  // namespace axihc
