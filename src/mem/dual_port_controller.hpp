// Dual-port memory controller: the shared DDR controller as the PS actually
// exposes it — one port for PS masters (CPU cores, peripherals) and one for
// the FPGA fabric (the FPGA-PS interface).
//
// This is the substrate for the paper's §V-A remark that bandwidth
// reservation also serves to control "the overall memory traffic coming
// from the FPGA fabric directed to the shared memory subsystem (which can
// delay the execution of software running on the processors of the PS)":
// with both ports contending for the same device, throttling the FPGA side
// at the HyperConnect visibly protects CPU memory latency
// (CpuProtection.PaperAblationFpgaBudgetRestoresCpuLatency in
// tests/test_dual_port.cpp).
//
// Service model matches MemoryController (first-word latency from the
// open-row state, one beat per cycle, turnaround); arbitration between the
// ports is arrival-order FIFO, or PS-priority when `ps_priority` is set
// (the Zynq DDRC's default port weighting favours the PS).
#pragma once

#include <cstdint>
#include <deque>

#include "axi/axi.hpp"
#include "common/types.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/component.hpp"

namespace axihc {

struct DualPortConfig {
  /// Shared device timing (same fields as the single-port model).
  Cycle row_hit_latency = 10;
  Cycle row_miss_latency = 24;
  std::uint32_t banks = 8;
  std::uint32_t row_bytes_log2 = 11;
  Cycle turnaround = 1;
  /// If true, queued PS commands are served before queued FPGA commands
  /// (non-preemptively).
  bool ps_priority = true;
};

class DualPortMemoryController final : public Component {
 public:
  DualPortMemoryController(std::string name, AxiLink& ps_link,
                           AxiLink& fpga_link, BackingStore& store,
                           DualPortConfig cfg = {});

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    if (ps_link_.ar.can_pop() || ps_link_.aw.can_pop() ||
        ps_link_.w.can_pop() || fpga_link_.ar.can_pop() ||
        fpga_link_.aw.can_pop() || fpga_link_.w.can_pop()) {
      return now;
    }
    return (busy_ || !queue_.empty()) ? now : kNoCycle;
  }

  [[nodiscard]] std::uint64_t ps_transactions() const { return ps_served_; }
  [[nodiscard]] std::uint64_t fpga_transactions() const {
    return fpga_served_;
  }

  void append_digest(StateDigest& d) const override {
    d.mix(ps_served_);
    d.mix(fpga_served_);
    d.mix(static_cast<std::uint64_t>(queue_.size()));
    d.mix(static_cast<std::uint64_t>(busy_));
    d.mix(static_cast<std::uint64_t>(wait_left_));
    d.mix(beats_left_);
  }

 private:
  enum class Source : std::uint8_t { kPs, kFpga };

  struct Command {
    Source source = Source::kPs;
    bool is_write = false;
    AddrReq req;
  };

  [[nodiscard]] AxiLink& link_of(Source s) {
    return s == Source::kPs ? ps_link_ : fpga_link_;
  }
  Cycle access_latency(Addr addr);
  void accept_from(AxiLink& link, Source source);
  void start_next_command();

  AxiLink& ps_link_;
  AxiLink& fpga_link_;
  BackingStore& store_;
  DualPortConfig cfg_;

  std::deque<Command> queue_;
  bool busy_ = false;
  Command current_{};
  Cycle wait_left_ = 0;
  BeatCount beats_left_ = 0;
  Addr next_beat_addr_ = 0;
  bool streaming_ = false;
  bool turnaround_ = false;

  std::vector<std::uint64_t> open_row_;
  static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

  std::uint64_t ps_served_ = 0;
  std::uint64_t fpga_served_ = 0;
};

}  // namespace axihc
