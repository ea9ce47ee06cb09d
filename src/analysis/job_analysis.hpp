// Job-level worst-case response-time analysis: bounds for complete
// acceleration jobs (a DNN inference frame, a DMA block move) composed from
// the transaction-level WCLA.
//
// This is the quantity a system integrator actually certifies against
// ("one GoogleNet frame completes within X ms even while every other HA
// floods the bus"), and the sizing tool for Fig.-5-style reservation
// splits: given a frame deadline, how much budget does the DNN need?
//
// A job is a sequence of phases; each phase moves bytes (reads and/or
// writes, overlapping freely) and then computes for a fixed time — the
// structure of DnnAccelerator and DmaEngine jobs. Bounds assume every other
// port is continuously backlogged (round-robin mode) or budget-capped
// (reservation mode), like the transaction-level bounds they build on.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/wcla.hpp"
#include "common/types.hpp"
#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"

namespace axihc {

/// One phase of an acceleration job.
struct JobPhase {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  Cycle compute_cycles = 0;
};

struct JobProfile {
  std::vector<JobPhase> phases;
  /// The HA's own burst size in beats (bounds the sub-transaction count
  /// together with the nominal burst).
  BeatCount ha_burst_beats = 16;

  [[nodiscard]] std::uint64_t total_bytes() const;
};

/// The bus/compute profile of one DnnAccelerator frame.
[[nodiscard]] JobProfile profile_of(const DnnConfig& cfg);

/// The bus profile of one DmaEngine job.
[[nodiscard]] JobProfile profile_of(const DmaConfig& cfg);

/// Sub-transactions needed to move `bytes` given the HA burst and the
/// equalization nominal.
[[nodiscard]] std::uint64_t subs_for_bytes(const HcAnalysisConfig& cfg,
                                           BeatCount ha_burst_beats,
                                           std::uint64_t bytes);

/// Worst-case completion time of one job issued by `port`, from its first
/// address request to its last response. Sound under the same adversary
/// model as wcrt_read/wcrt_write. A feasible reservation plan charges each
/// phase the supply term alone; an overcommitted plan charges supply plus
/// the round-robin term, like the transaction bound.
[[nodiscard]] Cycle job_wcrt(const HcAnalysisConfig& cfg,
                             const AnalysisPlatform& p, PortIndex port,
                             const JobProfile& job);

/// Smallest per-period budget that provably meets `deadline` for the job
/// under reservation (period from cfg), or 0 if no feasible budget exists
/// (deadline too tight even with the whole period). Inverse of job_wcrt —
/// the reservation-sizing question Fig. 5 answers empirically.
[[nodiscard]] std::uint32_t min_budget_for_deadline(
    HcAnalysisConfig cfg, const AnalysisPlatform& p, PortIndex port,
    const JobProfile& job, Cycle deadline);

}  // namespace axihc
