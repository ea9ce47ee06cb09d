#include "ha/dnn_accelerator.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace axihc {

namespace {
constexpr std::uint64_t KB = 1024;
constexpr std::uint64_t MB = 1024 * 1024;
constexpr std::uint64_t M = 1'000'000;

/// Trace slice label for a bus-visible phase; nullptr for kDone (idle).
const char* phase_label(int phase) {
  switch (phase) {
    case 0: return "load";
    case 1: return "compute";
    case 2: return "store";
    default: return nullptr;
  }
}
}  // namespace

std::vector<DnnLayer> googlenet_layers() {
  // Quantized (8-bit) GoogleNet / Inception v1: weight bytes == parameter
  // count; feature maps are 8-bit activations; MACs from the architecture.
  // Pooling layers are folded into the preceding entry.
  return {
      {"conv1-7x7", 10 * KB, 150 * KB, 784 * KB, 118 * M},
      {"conv2-3x3", 114 * KB, 196 * KB, 588 * KB, 360 * M},
      {"inception-3a", 160 * KB, 588 * KB, 196 * KB, 128 * M},
      {"inception-3b", 380 * KB, 196 * KB, 368 * KB, 304 * M},
      {"inception-4a", 364 * KB, 92 * KB, 100 * KB, 73 * M},
      {"inception-4b", 438 * KB, 100 * KB, 100 * KB, 88 * M},
      {"inception-4c", 510 * KB, 100 * KB, 100 * KB, 100 * M},
      {"inception-4d", 592 * KB, 100 * KB, 103 * KB, 119 * M},
      {"inception-4e", 848 * KB, 103 * KB, 163 * KB, 170 * M},
      {"inception-5a", 1048 * KB, 41 * KB, 41 * KB, 54 * M},
      {"inception-5b", 1356 * KB, 41 * KB, 50 * KB, 71 * M},
      {"fc-classifier", 1 * MB, 1 * KB, 1 * KB, 1 * M},
  };
}

std::vector<DnnLayer> alexnet_layers() {
  // Quantized AlexNet: weight bytes == parameter count (8-bit), activations
  // 8-bit, MACs from the architecture. The three FC layers carry ~58 MB of
  // the ~61 MB total weights.
  return {
      {"conv1-11x11", 35 * KB, 154 * KB, 280 * KB, 105 * M},
      {"conv2-5x5", 307 * KB, 70 * KB, 173 * KB, 223 * M},
      {"conv3-3x3", 885 * KB, 43 * KB, 65 * KB, 149 * M},
      {"conv4-3x3", 663 * KB, 65 * KB, 65 * KB, 112 * M},
      {"conv5-3x3", 442 * KB, 65 * KB, 9 * KB, 74 * M},
      {"fc6", 37 * MB + 750 * KB, 9 * KB, 4 * KB, 38 * M},
      {"fc7", 16 * MB + 384 * KB, 4 * KB, 4 * KB, 17 * M},
      {"fc8", 4 * MB, 4 * KB, 1 * KB, 4 * M},
  };
}

DnnAccelerator::DnnAccelerator(std::string name, AxiLink& link, DnnConfig cfg)
    : AxiMasterBase(std::move(name), link, cfg.max_outstanding,
                    cfg.max_outstanding, cfg.tolerate_out_of_order),
      cfg_(std::move(cfg)) {
  AXIHC_CHECK_MSG(!cfg_.layers.empty(), "DNN schedule must have layers");
  AXIHC_CHECK(cfg_.macs_per_cycle > 0);
  AXIHC_CHECK(cfg_.burst_beats >= 1 && cfg_.burst_beats <= kMaxAxi4BurstBeats);
  start_layer();
}

std::uint64_t DnnAccelerator::bytes_per_frame() const {
  std::uint64_t total = 0;
  for (const auto& l : cfg_.layers) {
    total += l.weight_bytes + l.ifmap_bytes + l.ofmap_bytes;
  }
  return total;
}

void DnnAccelerator::reset_master() {
  layer_idx_ = 0;
  frames_ = 0;
  frame_done_cycles_.clear();
  start_layer();
}

void DnnAccelerator::start_layer() {
  const DnnLayer& layer = cfg_.layers[layer_idx_];
  phase_ = Phase::kLoad;
  load_total_ = layer.weight_bytes + layer.ifmap_bytes;
  load_issued_ = load_done_ = 0;
  compute_cycles_ =
      (layer.macs + cfg_.macs_per_cycle - 1) / cfg_.macs_per_cycle;
  compute_end_ = 0;
  store_total_ = layer.ofmap_bytes;
  store_issued_ = store_done_ = 0;
}

void DnnAccelerator::append_digest(StateDigest& d) const {
  AxiMasterBase::append_digest(d);
  d.mix(frames_);
  d.mix(static_cast<std::uint64_t>(layer_idx_));
  d.mix(static_cast<std::uint64_t>(phase_));
  d.mix(load_done_);
  d.mix(store_done_);
  d.mix(static_cast<std::uint64_t>(compute_end_));
  for (Cycle c : frame_done_cycles_) d.mix(static_cast<std::uint64_t>(c));
}

void DnnAccelerator::register_metrics(MetricsRegistry& reg) {
  AxiMasterBase::register_metrics(reg);
  reg.add_counter(name() + ".frames_done", &frames_);
  reg.add_gauge(name() + ".layer_index",
                [this] { return static_cast<double>(layer_idx_); });
  reg.add_gauge(name() + ".phase", [this] {
    return static_cast<double>(static_cast<int>(phase_));
  });
}

void DnnAccelerator::trace_phase_change(Cycle now) {
  if (phase_ == traced_phase_) return;
  if (const char* old_label = phase_label(static_cast<int>(traced_phase_))) {
    trace()->record_end(now, name(), old_label);
  }
  if (const char* new_label = phase_label(static_cast<int>(phase_))) {
    trace()->record_begin(now, name(), new_label);
  }
  traced_phase_ = phase_;
}

void DnnAccelerator::tick(Cycle now) {
  if (tracing()) trace_phase_change(now);
  switch (phase_) {
    case Phase::kLoad: {
      if (load_issued_ < load_total_ && can_issue_read()) {
        const std::uint64_t remaining = load_total_ - load_issued_;
        const std::uint64_t beats64 =
            std::min<std::uint64_t>((remaining + 7) / 8, cfg_.burst_beats);
        const auto beats = static_cast<BeatCount>(beats64);
        issue_read(cfg_.weight_base + load_issued_, beats, now);
        load_issued_ += std::uint64_t{beats} * kBusBytes;
      }
      if (load_done_ >= load_total_) {
        phase_ = Phase::kCompute;
        // The naive countdown burned one tick per compute cycle starting
        // next tick and transitioned on the tick after the last one; the
        // deadline form lands on the identical cycle.
        compute_end_ = now + compute_cycles_ + 1;
      }
      break;
    }
    case Phase::kCompute: {
      if (now >= compute_end_) {
        phase_ = store_total_ > 0 ? Phase::kStore : Phase::kDone;
        if (phase_ == Phase::kDone) advance_after_store(now);
      }
      break;
    }
    case Phase::kStore: {
      if (store_issued_ < store_total_ && can_issue_write()) {
        const std::uint64_t remaining = store_total_ - store_issued_;
        const std::uint64_t beats64 =
            std::min<std::uint64_t>((remaining + 7) / 8, cfg_.burst_beats);
        const auto beats = static_cast<BeatCount>(beats64);
        issue_write(cfg_.buffer_base + store_issued_, beats, now,
                    /*fill_seed=*/store_issued_);
        store_issued_ += std::uint64_t{beats} * kBusBytes;
      }
      if (store_done_ >= store_total_) {
        phase_ = Phase::kDone;
        advance_after_store(now);
      }
      break;
    }
    case Phase::kDone:
      break;
  }

  pump(now);
}

Cycle DnnAccelerator::next_activity(Cycle now) const {
  if (tracing() && traced_phase_ != phase_) return now;  // slice sync pending
  if (!pump_idle()) return now;
  switch (phase_) {
    case Phase::kLoad:
      if (load_issued_ < load_total_ && can_issue_read()) return now;
      if (load_done_ >= load_total_) return now;  // phase transition pending
      return kNoCycle;  // blocked on backpressure or outstanding reads
    case Phase::kCompute:
      // No bus activity until the array finishes; the transition tick is
      // exactly compute_end_.
      return compute_end_ > now ? compute_end_ : now;
    case Phase::kStore:
      if (store_issued_ < store_total_ && can_issue_write()) return now;
      if (store_done_ >= store_total_) return now;  // phase transition pending
      return kNoCycle;
    case Phase::kDone:
      return kNoCycle;  // only a reset can re-arm
  }
  return now;
}

void DnnAccelerator::on_read_complete(const AddrReq& req, Cycle) {
  if (phase_ == Phase::kLoad) load_done_ += burst_bytes(req);
}

void DnnAccelerator::on_write_complete(const AddrReq& req, Cycle) {
  if (phase_ == Phase::kStore) store_done_ += burst_bytes(req);
}

void DnnAccelerator::advance_after_store(Cycle now) {
  ++layer_idx_;
  if (layer_idx_ < cfg_.layers.size()) {
    start_layer();
    return;
  }
  // Frame finished.
  ++frames_;
  frame_done_cycles_.push_back(now);
  if (tracing()) trace()->record(now, name(), "frame_done");
  layer_idx_ = 0;
  if (finished()) {
    phase_ = Phase::kDone;
  } else {
    start_layer();
  }
}

}  // namespace axihc
