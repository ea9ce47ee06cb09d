// Transaction Supervisor (TS) — the core bandwidth-management module of the
// AXI HyperConnect (§V-B).
//
// One TS per input port. Read and write transactions are managed by
// independent subsystems (AXI's parallel channels allow it):
//
//  * Burst equalization [11]: address requests longer than the programmable
//    nominal burst are split into sub-requests of nominal size. On reads the
//    returning data is merged back (RLAST is cleared on intermediate
//    sub-bursts); on writes the W stream is re-chunked and only the final
//    sub-burst's B response is forwarded to the HA. Every sub-request is one
//    arbitration unit at the EXBAR, so masters with heterogeneous burst
//    sizes compete fairly.
//
//  * Outstanding-transaction limiting: at most `max_outstanding`
//    sub-transactions in flight per port and direction.
//
//  * Bandwidth reservation [10]: each sub-transaction issued consumes one
//    unit of the port's budget; the central unit recharges all budgets
//    synchronously every reservation period. A port whose budget is
//    exhausted is stalled until the next recharge.
//
// The TS adds one cycle of latency per address request (its output is a
// pipeline stage) and zero cycles on R/W/B, which it processes proactively.
#pragma once

#include <cstdint>
#include <optional>

#include "axi/axi.hpp"
#include "common/ring_buffer.hpp"
#include "hyperconnect/config.hpp"
#include "hyperconnect/efifo.hpp"
#include "sim/channel.hpp"

namespace axihc {

class TransactionSupervisor {
 public:
  /// Per-port supervisor reading shared runtime state `rt` (owned by the
  /// HyperConnect, programmed via the control interface).
  TransactionSupervisor(PortIndex port, const HcRuntime& rt);

  /// Result of one issue step: the sub-transaction issued this cycle, if
  /// `issued` (consumed by the protection unit's in-flight tracking). `id`
  /// is the HA-side ID, before any ID extension. `started`: the step popped
  /// a new HA request from the eFIFO (split_request() returns it), whether
  /// or not it issued. Eight bytes, returned in one register: a
  /// std::optional of the same fields is twelve bytes, and rebuilding its
  /// engaged flag on the stack cost a store-forwarding stall on every idle
  /// tick.
  struct IssuedSub {
    TxnId id = 0;
    bool is_final = false;
    bool issued = false;
    bool started = false;
    explicit operator bool() const { return issued; }
  };

  /// Read-management issue step: moves at most one sub-AR from the port
  /// eFIFO into the TS output stage. `budget_left` is the port's remaining
  /// reservation budget (shared between read and write subsystems).
  /// Returns the sub-transaction issued this cycle, if any.
  ///
  /// The idle cases stay inline: no split and nothing in the eFIFO, or a
  /// split that may not issue (the common case on a saturated port). Only a
  /// split start or an issue leaves the header.
  IssuedSub tick_read_issue(Efifo& in, TimingChannel<AddrReq>& ts_ar,
                            std::uint32_t& budget_left) {
    if (read_split_.active
            ? !may_issue(ts_ar, reads_outstanding_, budget_left)
            : !(rt_.global_enable && in.ar_available())) {
      return {};
    }
    return read_issue(in, ts_ar, budget_left);
  }

  /// Write-management issue step (sub-AW), symmetric to reads.
  IssuedSub tick_write_issue(Efifo& in, TimingChannel<AddrReq>& ts_aw,
                             std::uint32_t& budget_left) {
    if (write_split_.active
            ? !may_issue(ts_aw, writes_outstanding_, budget_left)
            : !(rt_.global_enable && in.aw_available())) {
      return {};
    }
    return write_issue(in, ts_aw, budget_left);
  }

  /// Read merge: fixes up RLAST across split sub-bursts and tracks
  /// outstanding reads. Call for every R beat routed to this port. Error
  /// responses are sticky across the sub-bursts of one HA transaction: once
  /// any merged beat carried SLVERR/DECERR, every later beat of the same HA
  /// burst reports (at least) that response.
  [[nodiscard]] RBeat process_r_beat(RBeat beat);

  /// Write-response merge: returns true if this B response corresponds to
  /// the final sub-burst of an HA transaction and must be forwarded. The
  /// forwarded response is rewritten to the worst of all sub-burst
  /// responses of the merged transaction.
  [[nodiscard]] bool process_b(BResp& resp);

  /// True if the next issue tick could make progress: a fresh HA request is
  /// waiting in the eFIFO, or an in-progress split may issue its next
  /// sub-request (stage headroom, outstanding slot and budget permitting).
  /// Pure observation for the kernel's activity scheduling.
  [[nodiscard]] bool issue_pending(const Efifo& in,
                                   const TimingChannel<AddrReq>& ts_ar,
                                   const TimingChannel<AddrReq>& ts_aw,
                                   std::uint32_t budget_left) const;

  [[nodiscard]] std::uint32_t reads_outstanding() const {
    return reads_outstanding_;
  }
  [[nodiscard]] std::uint32_t writes_outstanding() const {
    return writes_outstanding_;
  }

  /// Sub-transactions issued since reset (read + write) — exported through
  /// the TXN_COUNT register.
  [[nodiscard]] std::uint64_t subtransactions_issued() const {
    return sub_issued_;
  }

  void reset();

  /// Drops the not-yet-issued remainder of any in-progress burst split
  /// (decoupling flush). Sub-transactions already issued keep their merge
  /// bookkeeping so in-flight responses stay consistent.
  void abort_pending_issue() {
    read_split_ = SplitProgress{};
    write_split_ = SplitProgress{};
  }

  /// HA-side ID of the read transaction currently being split, if any (the
  /// protection unit synthesizes its terminal completion on a fault, since
  /// the final sub-request was never issued downstream).
  [[nodiscard]] std::optional<TxnId> active_read_id() const {
    if (read_split_.active) return read_split_.orig.id;
    return std::nullopt;
  }
  [[nodiscard]] std::optional<TxnId> active_write_id() const {
    if (write_split_.active) return write_split_.orig.id;
    return std::nullopt;
  }

  /// The HA request of the latest read/write split, as popped from the
  /// eFIFO. Valid after the issue step that started it reported `started`,
  /// until the next split or abort.
  [[nodiscard]] const AddrReq& split_request(bool is_write) const {
    return is_write ? write_split_.orig : read_split_.orig;
  }

 private:
  /// Progress of splitting one HA transaction into sub-requests.
  struct SplitProgress {
    bool active = false;
    AddrReq orig{};
    BeatCount remaining = 0;
    Addr next_addr = 0;
  };

  [[nodiscard]] BeatCount next_sub_beats(const SplitProgress& sp) const;
  IssuedSub issue_sub(SplitProgress& sp, TimingChannel<AddrReq>& out,
                      RingBuffer<std::uint8_t>& pending_finals,
                      std::uint32_t& outstanding, std::uint32_t& budget_left);
  /// The non-idle halves of tick_read_issue/tick_write_issue: start a split
  /// from the eFIFO head if none is active, then issue if permitted.
  IssuedSub read_issue(Efifo& in, TimingChannel<AddrReq>& ts_ar,
                       std::uint32_t& budget_left);
  IssuedSub write_issue(Efifo& in, TimingChannel<AddrReq>& ts_aw,
                        std::uint32_t& budget_left);
  [[nodiscard]] bool may_issue(const TimingChannel<AddrReq>& out,
                               std::uint32_t outstanding,
                               std::uint32_t budget_left) const {
    return rt_.global_enable && out.can_push() &&
           outstanding < rt_.max_outstanding &&
           (rt_.reservation_period == 0 || budget_left != 0);
  }

  PortIndex port_;
  const HcRuntime& rt_;

  SplitProgress read_split_;
  SplitProgress write_split_;
  /// is-final flags of in-flight sub-bursts, in issue order.
  RingBuffer<std::uint8_t> pending_split_reads_{512};
  RingBuffer<std::uint8_t> pending_split_writes_{512};
  std::uint32_t reads_outstanding_ = 0;
  std::uint32_t writes_outstanding_ = 0;
  std::uint64_t sub_issued_ = 0;
  /// Worst-of accumulator over the sub-burst B responses of the write
  /// transaction currently being merged.
  Resp b_accum_ = Resp::kOkay;
  /// Sticky error response across the merged sub-bursts of the current read
  /// transaction.
  Resp r_sticky_ = Resp::kOkay;
};

}  // namespace axihc
