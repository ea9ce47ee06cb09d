// Cycle-level model of the PS-side memory path: FPGA-PS slave interface +
// DRAM controller + DRAM.
//
// Behavioural contract (matches the platforms the paper targets, UG585/UG1085):
//  * transactions are served strictly in order of arrival at the slave port
//    (no out-of-order completion — the reason HyperConnect does not support
//    it either, §V-A "Compatibility");
//  * a transaction pays a first-word latency (row hit or row miss, tracked
//    per bank), then streams one data beat per cycle;
//  * read data is returned on R in AR order; a write consumes its W beats at
//    one per cycle and acknowledges with a single B response.
//
// An optional second link, the PS port, lets PS masters (CPU cores,
// peripherals) contend for the same device explicitly: the DDR controller
// as the PS exposes it. This is the substrate for the paper's §V-A remark
// that bandwidth reservation also controls "the overall memory traffic
// coming from the FPGA fabric directed to the shared memory subsystem
// (which can delay the execution of software running on the processors of
// the PS)" (CpuProtection.PaperAblationFpgaBudgetRestoresCpuLatency in
// tests/test_ps_port.cpp). Both ports feed the one command queue; with
// `ps_priority` the oldest queued PS command is served first
// (non-preemptively), as the Zynq DDRC's default port weighting favours
// the PS.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axi/axi.hpp"
#include "common/types.hpp"
#include "mem/backing_store.hpp"
#include "obs/latency_audit.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace axihc {

/// Command scheduling policy.
///  * kInOrder — strict arrival order, as in the Zynq-7000/UltraScale+
///    controllers the paper targets (§V-A "Compatibility").
///  * kFrFcfs — first-ready, first-come-first-served: row hits may overtake
///    older row misses. Models a future platform with out-of-order
///    completion (the paper's future-work scenario). Per-ID order is
///    preserved (AXI requirement) and writes become eligible only once all
///    their W data is buffered.
enum class MemScheduling { kInOrder, kFrFcfs };

struct MemoryControllerConfig {
  MemScheduling scheduling = MemScheduling::kInOrder;
  /// kFrFcfs: two commands whose (id & id_order_mask) match must stay in
  /// order. Full-ID by default; with the HyperConnect's ID-extension mode
  /// use 0xFFFF0000 so per-source-port order is preserved while different
  /// ports may be reordered.
  TxnId id_order_mask = ~TxnId{0};
  /// First-word latency when the access hits the open row of its bank.
  Cycle row_hit_latency = 10;
  /// First-word latency on a row miss (precharge + activate + CAS).
  Cycle row_miss_latency = 24;
  /// Number of DRAM banks tracked for the open-row model.
  std::uint32_t banks = 8;
  /// log2 of the row size in bytes (2 KiB rows by default).
  std::uint32_t row_bytes_log2 = 11;
  /// Extra cycles between the last beat of a transaction and the start of
  /// the next one (bus turnaround / controller bookkeeping).
  Cycle turnaround = 1;
  /// DRAM refresh: every `refresh_period` cycles (tREFI) the device is
  /// unavailable for `refresh_duration` cycles (tRFC). 0 disables refresh
  /// (the default, so calibrated baselines are undisturbed). At DDR4-speed
  /// numbers on a 150 MHz fabric: tREFI ~ 1170 cycles, tRFC ~ 53 cycles.
  Cycle refresh_period = 0;
  Cycle refresh_duration = 0;
  /// Address decode map. Empty = the whole address space is mapped
  /// (back-compatible default). Otherwise a burst not entirely inside one
  /// of these ranges gets DECERR (timing as usual, store untouched).
  std::vector<AddrRange> mapped_ranges;
  /// Error-synthesizing windows (fault injection / broken-slave model): a
  /// burst overlapping any of these ranges gets SLVERR.
  std::vector<AddrRange> slverr_ranges;
  /// With a PS port (in-order scheduling only): queued PS commands are
  /// served before queued FPGA commands. Off = arrival order.
  bool ps_priority = true;
};

class MemoryController final : public Component {
 public:
  /// Serves AXI traffic arriving on the slave side of `link` (the FPGA-PS
  /// port) and, if given, of `ps_link` (the PS port), reading and writing
  /// `store`. All are borrowed and must outlive the controller. A PS port
  /// needs in-order scheduling: FR-FCFS buffers W data from `link` only.
  MemoryController(std::string name, AxiLink& link, BackingStore& store,
                   MemoryControllerConfig cfg = {},
                   AxiLink* ps_link = nullptr);

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  [[nodiscard]] std::uint64_t reads_served() const { return reads_served_; }
  [[nodiscard]] std::uint64_t writes_served() const { return writes_served_; }
  [[nodiscard]] std::uint64_t beats_served() const { return beats_served_; }
  [[nodiscard]] std::uint64_t busy_cycles() const { return busy_cycles_; }
  [[nodiscard]] std::uint64_t row_hits() const { return row_hits_; }
  [[nodiscard]] std::uint64_t row_misses() const { return row_misses_; }

  [[nodiscard]] const MemoryControllerConfig& config() const { return cfg_; }

  /// Transactions that overtook an older one (kFrFcfs, or PS priority).
  [[nodiscard]] std::uint64_t reordered() const { return reordered_; }

  /// Refresh windows entered so far.
  [[nodiscard]] std::uint64_t refreshes() const { return refreshes_; }

  /// Transactions answered with DECERR (address-decode miss).
  [[nodiscard]] std::uint64_t decode_errors() const { return decode_errors_; }
  /// Transactions answered with SLVERR (error-synthesizing window).
  [[nodiscard]] std::uint64_t slv_errors() const { return slv_errors_; }

  /// Observability: refresh windows and error responses become trace
  /// instants. nullptr (the default) disables the hooks.
  void set_trace(EventTrace* trace) { trace_ = trace; }

  /// Latency auditor hooks: command service start/done. Only meaningful
  /// with in-order scheduling (the auditor matches commands positionally;
  /// FR-FCFS reordering breaks that, so the wiring layer does not attach
  /// the auditor to FR-FCFS controllers, nor to one with a PS port, whose
  /// commands are not the auditor's). nullptr (the default) disables.
  void set_latency_audit(LatencyAudit* audit);

  /// Registers queue depth, served/row-hit/row-miss counters etc. with `reg`.
  void register_metrics(MetricsRegistry& reg);

  void append_digest(StateDigest& d) const override;

 private:
  struct Command {
    bool is_write = false;
    AddrReq req;
    /// The port the command arrived on; R, W and B of its data phase use it.
    AxiLink* link = nullptr;
    /// kFrFcfs: buffered write data (write eligible once complete).
    std::vector<WBeat> data;
  };

  enum class Phase { kIdle, kLatency, kStreamRead, kStreamWrite, kTurnaround };

  /// Looks up the open-row state for `addr` and returns the first-word
  /// latency, updating the open row.
  Cycle access_latency(Addr addr);

  /// True if the open-row state says `addr` would be a row hit (no update).
  [[nodiscard]] bool would_hit(Addr addr) const;

  void accept_from(AxiLink& link);
  void accept_new_requests();
  void buffer_write_data();
  [[nodiscard]] bool eligible(std::size_t index) const;
  [[nodiscard]] std::size_t pick_next() const;
  /// In order: the oldest PS command under `ps_priority`, else the oldest.
  [[nodiscard]] std::size_t pick_in_order() const;
  /// kStreamRead/kStreamWrite: the next beat waits for R room, W data or B
  /// room. FR-FCFS streams pre-buffered data; in order, each beat needs W.
  [[nodiscard]] bool stream_blocked() const {
    const AxiLink& link = *current_.link;
    if (phase_ == Phase::kStreamRead) return !link.r.can_push();
    if (beats_left_ == 1 && !link.b.can_push()) return true;
    return cfg_.scheduling == MemScheduling::kInOrder && !link.w.can_pop();
  }
  void start_next_command();
  /// Address-decode + error-window resolution for a whole burst.
  [[nodiscard]] Resp resolve_resp(const AddrReq& req) const;

  AxiLink& link_;
  AxiLink* ps_link_;  // nullptr: no PS port
  BackingStore& store_;
  MemoryControllerConfig cfg_;

  std::deque<Command> queue_;
  Phase phase_ = Phase::kIdle;
  Command current_{};
  Resp current_resp_ = Resp::kOkay;
  Cycle wait_left_ = 0;
  BeatCount beats_left_ = 0;
  Addr next_beat_addr_ = 0;
  std::size_t stream_index_ = 0;  // kFrFcfs: beats consumed from the buffer
  std::uint64_t reordered_ = 0;
  std::uint64_t refreshes_ = 0;

  std::vector<std::uint64_t> open_row_;  // per bank; kNoRow if none
  static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

  std::uint64_t reads_served_ = 0;
  std::uint64_t writes_served_ = 0;
  std::uint64_t beats_served_ = 0;
  std::uint64_t busy_cycles_ = 0;
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t slv_errors_ = 0;

  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled();
  }
  EventTrace* trace_ = nullptr;
  LatencyAudit* audit_ = nullptr;
  // Last tick's cycle: timestamps hooks below start_next_command and
  // measures the stretch a countdown skipped (lazy catch-up in tick()).
  Cycle now_ = 0;
};

}  // namespace axihc
