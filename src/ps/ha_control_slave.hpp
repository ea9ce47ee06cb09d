// AXI control slave interface of a hardware accelerator (§II: "SW-tasks use
// AXI slave interfaces to setup the configuration of HAs, acting on
// memory-mapped registers").
//
// Wraps a ControllableHa with the standard Xilinx-style register block:
//   0x00 CTRL    w1s  bit0 = AP_START (kick one job; ignored while busy)
//   0x08 STATUS  ro   bit0 = AP_BUSY, bit1 = AP_DONE (sticky)
//   0x10 DONE_CLR w   any write clears AP_DONE
//   0x18 JOBS    ro   completed-job counter
// and raises the accelerator's interrupt line on every busy->idle edge.
// The SW-task reaches this block through the PS-FPGA interface, modelled by
// the AxiLink passed in.
#pragma once

#include <cstdint>

#include "axi/axi.hpp"
#include "ha/controllable.hpp"
#include "ps/interrupt.hpp"
#include "sim/component.hpp"

namespace axihc::hactrl {
inline constexpr Addr kCtrl = 0x00;
inline constexpr Addr kStatus = 0x08;
inline constexpr Addr kDoneClr = 0x10;
inline constexpr Addr kJobs = 0x18;
inline constexpr std::uint64_t kStatusBusy = 1;
inline constexpr std::uint64_t kStatusDone = 2;
}  // namespace axihc::hactrl

namespace axihc {

class HaControlSlave final : public Component {
 public:
  /// Serves the control registers of `ha` over the slave side of `link`
  /// and raises `irq_line` of `irq` when a job completes.
  HaControlSlave(std::string name, AxiLink& link, ControllableHa& ha,
                 InterruptController& irq, std::uint32_t irq_line);

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_; }

 private:
  void apply_write(Addr offset, std::uint64_t value);
  [[nodiscard]] std::uint64_t read(Addr offset) const;

  AxiLink& link_;
  ControllableHa& ha_;
  InterruptController& irq_;
  std::uint32_t irq_line_;

  bool was_busy_ = false;
  bool done_sticky_ = false;
  std::uint64_t jobs_ = 0;
};

}  // namespace axihc
