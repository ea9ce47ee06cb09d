// Configurable synthetic AXI traffic generator.
//
// Used for protocol/arbitration experiments: greedy masters, periodic
// masters, and the "bandwidth stealer" adversary of [11] (a master issuing
// very long bursts to monopolize a round-robin arbiter that grants whole
// transactions per round).
#pragma once

#include <cstdint>

#include "ha/master_base.hpp"

namespace axihc {

enum class TrafficDirection { kRead, kWrite, kMixed };

struct TrafficConfig {
  TrafficDirection direction = TrafficDirection::kRead;
  Addr base = 0x4000'0000;
  /// Size of the address region cycled over.
  std::uint64_t region_bytes = 1ull << 20;
  BeatCount burst_beats = 16;
  /// Idle cycles inserted between consecutive issues (0 = greedy).
  Cycle gap_cycles = 0;
  std::uint32_t max_outstanding = 8;
  /// 0 = unlimited; otherwise stop after this many issued transactions.
  std::uint64_t max_transactions = 0;
  /// Accept out-of-order completion (future-work platforms, §V-A).
  bool tolerate_out_of_order = false;
};

class TrafficGenerator final : public AxiMasterBase {
 public:
  TrafficGenerator(std::string name, AxiLink& link, TrafficConfig cfg = {});

  void tick(Cycle now) override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  [[nodiscard]] const TrafficConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t transactions_issued() const { return issued_; }
  [[nodiscard]] std::uint64_t transactions_completed() const {
    return stats().reads_completed + stats().writes_completed;
  }
  [[nodiscard]] bool finished() const {
    return cfg_.max_transactions != 0 &&
           transactions_completed() >= cfg_.max_transactions && idle();
  }

  /// Preset: the bandwidth-stealer adversary of [11] — greedy writes/reads
  /// with maximal AXI4 bursts.
  static TrafficConfig bandwidth_stealer(Addr base);

 private:
  void reset_master() override;

  TrafficConfig cfg_;
  std::uint64_t issued_ = 0;
  Addr offset_ = 0;
  /// First cycle the next issue may be attempted (deadline form of the
  /// inter-issue gap, so gap ticks are pure no-ops).
  Cycle next_try_at_ = 0;
  bool next_is_write_ = false;  // kMixed alternation
};

}  // namespace axihc
