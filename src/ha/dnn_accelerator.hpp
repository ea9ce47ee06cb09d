// Model of a CHaiDNN-class DNN inference accelerator (§VI-C case study).
//
// CHaiDNN itself is RTL + a software stack; for interconnect evaluation what
// matters is the *bus-side traffic shape* of one inference: per layer, a
// burst of reads (weights + input feature map), a compute phase with no bus
// activity (the systolic/DSP array working out of on-chip buffers), then a
// burst of writes (output feature map). This model replays that phase
// structure over a configurable layer schedule; the default schedule is the
// quantized GoogleNet the paper runs, with per-layer weight/feature-map
// sizes and MAC counts from the published network architecture.
//
// Performance index, as in the paper: frames per second.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ha/master_base.hpp"

namespace axihc {

/// One layer's bus and compute footprint.
struct DnnLayer {
  std::string name;
  std::uint64_t weight_bytes = 0;
  std::uint64_t ifmap_bytes = 0;
  std::uint64_t ofmap_bytes = 0;
  /// Multiply-accumulate operations (drives the compute-phase length).
  std::uint64_t macs = 0;
};

struct DnnConfig {
  std::vector<DnnLayer> layers;
  /// MACs retired per cycle by the accelerator's array. 256 models a
  /// mid-size CHaiDNN configuration.
  std::uint64_t macs_per_cycle = 256;
  BeatCount burst_beats = 16;
  std::uint32_t max_outstanding = 4;
  Addr weight_base = 0x0800'0000;
  Addr buffer_base = 0x0C00'0000;
  /// 0 = run forever; otherwise stop after this many frames.
  std::uint64_t max_frames = 0;
  /// Accept out-of-order completion (future-work platforms, §V-A).
  bool tolerate_out_of_order = false;
};

/// The quantized GoogleNet (Inception v1) schedule shipped with CHaiDNN:
/// 8-bit weights (~7 MB total), per-layer feature maps, ~1.6 GMAC per frame.
[[nodiscard]] std::vector<DnnLayer> googlenet_layers();

/// The quantized AlexNet schedule (CHaiDNN's other stock network): ~61 MB
/// of 8-bit weights dominated by the FC layers, ~0.7 GMAC per frame —
/// a far more weight-bandwidth-bound profile than GoogleNet.
[[nodiscard]] std::vector<DnnLayer> alexnet_layers();

class DnnAccelerator final : public AxiMasterBase {
 public:
  DnnAccelerator(std::string name, AxiLink& link, DnnConfig cfg);

  void tick(Cycle now) override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  [[nodiscard]] std::uint64_t frames_completed() const { return frames_; }
  [[nodiscard]] const std::vector<Cycle>& frame_completion_cycles() const {
    return frame_done_cycles_;
  }
  [[nodiscard]] bool finished() const {
    return cfg_.max_frames != 0 && frames_ >= cfg_.max_frames;
  }
  [[nodiscard]] const DnnConfig& config() const { return cfg_; }

  /// Total bus bytes one frame moves (reads + writes) — sanity checks.
  [[nodiscard]] std::uint64_t bytes_per_frame() const;

  /// Base metrics plus the frame counter and phase gauge.
  void register_metrics(MetricsRegistry& reg) override;

  void append_digest(StateDigest& d) const override;

 private:
  enum class Phase { kLoad, kCompute, kStore, kDone };

  void on_read_complete(const AddrReq& req, Cycle now) override;
  void on_write_complete(const AddrReq& req, Cycle now) override;
  void reset_master() override;

  void start_layer();
  void advance_after_store(Cycle now);
  /// Emits begin/end slices when phase_ changed since the last tick. Phase
  /// switches happen mid-tick, so the slice boundary lands on the next
  /// tick's timestamp (one cycle late, constant skew).
  void trace_phase_change(Cycle now);

  DnnConfig cfg_;
  std::size_t layer_idx_ = 0;
  Phase phase_ = Phase::kLoad;
  Phase traced_phase_ = Phase::kDone;  // last phase mirrored into the trace

  // Load phase bookkeeping.
  std::uint64_t load_total_ = 0;
  std::uint64_t load_issued_ = 0;
  std::uint64_t load_done_ = 0;
  // Compute phase: duration (from the layer's MACs) and the deadline-form
  // end cycle, so compute ticks are pure no-ops until the deadline (the
  // fast path can skip them wholesale).
  Cycle compute_cycles_ = 0;
  Cycle compute_end_ = 0;
  // Store phase.
  std::uint64_t store_total_ = 0;
  std::uint64_t store_issued_ = 0;
  std::uint64_t store_done_ = 0;

  std::uint64_t frames_ = 0;
  std::vector<Cycle> frame_done_cycles_;
};

}  // namespace axihc
