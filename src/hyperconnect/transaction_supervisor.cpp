#include "hyperconnect/transaction_supervisor.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace axihc {

TransactionSupervisor::TransactionSupervisor(PortIndex port,
                                             const HcRuntime& rt)
    : port_(port), rt_(rt) {}

void TransactionSupervisor::reset() {
  read_split_ = SplitProgress{};
  write_split_ = SplitProgress{};
  pending_split_reads_.clear();
  pending_split_writes_.clear();
  reads_outstanding_ = 0;
  writes_outstanding_ = 0;
  sub_issued_ = 0;
  b_accum_ = Resp::kOkay;
  r_sticky_ = Resp::kOkay;
}

BeatCount TransactionSupervisor::next_sub_beats(
    const SplitProgress& sp) const {
  // Equalization applies to FIXED and INCR bursts; WRAP bursts (rare,
  // cache-line refills) pass unsplit because splitting would change their
  // wrapping semantics.
  if (rt_.nominal_burst == 0 || sp.orig.burst == BurstType::kWrap) {
    return sp.remaining;
  }
  return std::min<BeatCount>(sp.remaining, rt_.nominal_burst);
}

TransactionSupervisor::IssuedSub TransactionSupervisor::issue_sub(
    SplitProgress& sp, TimingChannel<AddrReq>& out,
    RingBuffer<std::uint8_t>& pending_finals, std::uint32_t& outstanding,
    std::uint32_t& budget_left) {
  const BeatCount sub_beats = next_sub_beats(sp);
  AXIHC_CHECK(sub_beats > 0 && sub_beats <= sp.remaining);

  const bool is_final = sp.remaining == sub_beats;
  AddrReq sub = sp.orig;
  sub.addr = sp.next_addr;
  sub.beats = sub_beats;
  if (rt_.out_of_order) {
    // ID-extension mode: prepend the source port so out-of-order responses
    // remain routable (and per-port order enforceable) downstream.
    AXIHC_CHECK_MSG(sp.orig.id < (TxnId{1} << kIdPortShift),
                    "HA id too wide for ID-extension mode");
    sub.id = sp.orig.id | (static_cast<TxnId>(port_) << kIdPortShift);
  }
  // The tag tells the EXBAR whether this sub-burst ends the HA transaction
  // (it expects the HA's original WLAST on the final W beat).
  sub.tag = is_final ? 1 : 0;
  out.push(sub);

  AXIHC_CHECK_MSG(!pending_finals.full(),
                  "TS port " << port_ << ": split bookkeeping overflow");
  pending_finals.push(is_final ? 1 : 0);
  ++outstanding;
  ++sub_issued_;
  if (rt_.reservation_period != 0) --budget_left;

  sp.remaining -= sub_beats;
  if (sp.orig.burst != BurstType::kFixed) {
    sp.next_addr += std::uint64_t{sub_beats} << sp.orig.size_log2;
  }
  if (sp.remaining == 0) sp.active = false;
  return {sp.orig.id, is_final, true};
}

bool TransactionSupervisor::issue_pending(
    const Efifo& in, const TimingChannel<AddrReq>& ts_ar,
    const TimingChannel<AddrReq>& ts_aw, std::uint32_t budget_left) const {
  if (rt_.global_enable && !read_split_.active && in.ar_available()) {
    return true;
  }
  if (rt_.global_enable && !write_split_.active && in.aw_available()) {
    return true;
  }
  if (read_split_.active && may_issue(ts_ar, reads_outstanding_, budget_left)) {
    return true;
  }
  if (write_split_.active &&
      may_issue(ts_aw, writes_outstanding_, budget_left)) {
    return true;
  }
  return false;
}

TransactionSupervisor::IssuedSub TransactionSupervisor::read_issue(
    Efifo& in, TimingChannel<AddrReq>& ts_ar, std::uint32_t& budget_left) {
  // The inline caller saw either an active split that may issue, or an
  // enabled port with a request at the eFIFO head.
  const bool started = !read_split_.active;
  if (started) {
    const AddrReq req = in.pop_ar();
    read_split_ = {true, req, req.beats, req.addr};
    if (!may_issue(ts_ar, reads_outstanding_, budget_left)) {
      return {0, false, false, true};
    }
  }
  IssuedSub sub = issue_sub(read_split_, ts_ar, pending_split_reads_,
                            reads_outstanding_, budget_left);
  sub.started = started;
  return sub;
}

TransactionSupervisor::IssuedSub TransactionSupervisor::write_issue(
    Efifo& in, TimingChannel<AddrReq>& ts_aw, std::uint32_t& budget_left) {
  const bool started = !write_split_.active;
  if (started) {
    const AddrReq req = in.pop_aw();
    write_split_ = {true, req, req.beats, req.addr};
    if (!may_issue(ts_aw, writes_outstanding_, budget_left)) {
      return {0, false, false, true};
    }
  }
  IssuedSub sub = issue_sub(write_split_, ts_aw, pending_split_writes_,
                            writes_outstanding_, budget_left);
  sub.started = started;
  return sub;
}

RBeat TransactionSupervisor::process_r_beat(RBeat beat) {
  AXIHC_CHECK_MSG(!pending_split_reads_.empty(),
                  "TS port " << port_ << ": R beat with no sub-read pending");
  // Sticky error merge: an error on any sub-burst beat poisons the rest of
  // the HA transaction, so the HA sees the error even if it only checks the
  // final beat.
  r_sticky_ = worst_resp(r_sticky_, beat.resp);
  beat.resp = r_sticky_;
  if (beat.last) {
    // End of one sub-burst at the memory side. Only the final sub-burst of
    // the HA's original transaction keeps RLAST.
    const bool is_final = pending_split_reads_.front() != 0;
    pending_split_reads_.pop();
    AXIHC_CHECK(reads_outstanding_ > 0);
    --reads_outstanding_;
    beat.last = is_final;
    if (is_final) r_sticky_ = Resp::kOkay;
  }
  return beat;
}

bool TransactionSupervisor::process_b(BResp& resp) {
  AXIHC_CHECK_MSG(!pending_split_writes_.empty(),
                  "TS port " << port_ << ": B with no sub-write pending");
  const bool is_final = pending_split_writes_.front() != 0;
  pending_split_writes_.pop();
  AXIHC_CHECK(writes_outstanding_ > 0);
  --writes_outstanding_;
  b_accum_ = worst_resp(b_accum_, resp.resp);
  if (!is_final) return false;
  // The single B forwarded to the HA reports the worst sub-burst response.
  resp.resp = b_accum_;
  b_accum_ = Resp::kOkay;
  return true;
}

}  // namespace axihc
