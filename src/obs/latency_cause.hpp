// The cause buckets of the latency auditor (src/obs/latency_audit.*). A
// header of its own so the HyperConnect, which classifies stalls, and the
// flight recorder, which stores the buckets, need no more than the enum.
#pragma once

#include <cstddef>
#include <cstdint>

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

}  // namespace axihc
