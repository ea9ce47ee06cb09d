// A simple AXI-Lite-style register master: the bus-level half of the
// HyperConnect driver. Queues register read/write operations and performs
// them over a control AxiLink, one at a time, in order.
//
// In a real deployment this is the hypervisor's CPU core doing memory-mapped
// I/O through the PS-FPGA interface; here it is a component so the accesses
// travel over the simulated control bus with realistic timing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "axi/axi.hpp"
#include "sim/component.hpp"

namespace axihc {

class RegisterMaster final : public Component {
 public:
  using ReadCallback = std::function<void(std::uint64_t)>;

  RegisterMaster(std::string name, AxiLink& control_link);

  /// Enqueues a register write (fire and forget; completion is implied by
  /// idle()).
  void write_reg(Addr offset, std::uint64_t value);

  /// Enqueues a register read; `on_value` runs when the data returns.
  void read_reg(Addr offset, ReadCallback on_value);

  /// True when no operation is queued or in flight.
  [[nodiscard]] bool idle() const {
    return queue_.empty() && !awaiting_b_ && !awaiting_r_;
  }

  [[nodiscard]] std::uint64_t completed_ops() const { return completed_; }

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    return idle() ? kNoCycle : now;
  }

  void append_digest(StateDigest& d) const override {
    d.mix(completed_);
    d.mix(static_cast<std::uint64_t>(queue_.size()));
    d.mix(static_cast<std::uint64_t>(awaiting_b_) |
          (static_cast<std::uint64_t>(awaiting_r_) << 1));
    d.mix(static_cast<std::uint64_t>(next_id_));
  }

 private:
  struct Op {
    bool is_write = false;
    Addr offset = 0;
    std::uint64_t value = 0;
    ReadCallback on_value;
  };

  AxiLink& link_;
  std::deque<Op> queue_;
  bool awaiting_b_ = false;
  bool awaiting_r_ = false;
  ReadCallback pending_cb_;
  TxnId next_id_ = 1;
  std::uint64_t completed_ = 0;
};

}  // namespace axihc
