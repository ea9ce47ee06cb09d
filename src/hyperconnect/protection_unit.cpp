#include "hyperconnect/protection_unit.hpp"

#include "common/check.hpp"

namespace axihc {

void ProtectionUnit::reset() {
  reads_.clear();
  writes_.clear();
  stall_ = {};
  malformed_ = false;
}

void ProtectionUnit::on_issue_read(TxnId id, bool is_final, Cycle now) {
  reads_.push_back({id, is_final, now});
}

void ProtectionUnit::on_issue_write(TxnId id, bool is_final, Cycle now) {
  writes_.push_back({id, is_final, now});
}

void ProtectionUnit::on_read_sub_complete() {
  AXIHC_CHECK_MSG(!reads_.empty(),
                  "PU port " << port_ << ": read completion with no record");
  reads_.pop_front();
}

void ProtectionUnit::on_write_sub_complete() {
  AXIHC_CHECK_MSG(!writes_.empty(),
                  "PU port " << port_ << ": write completion with no record");
  writes_.pop_front();
}

FaultCause ProtectionUnit::evaluate_stalls() const {
  // A malformed burst is a hard protocol violation: fault immediately, even
  // with timeouts disabled.
  if (malformed_) return FaultCause::kMalformed;
  if (rt_.prot_timeout == 0) return FaultCause::kNone;
  if (stall_cycles(StallPath::kW) >= rt_.prot_timeout) {
    return FaultCause::kWriteStall;
  }
  if (stall_cycles(StallPath::kR) >= rt_.prot_timeout) {
    return FaultCause::kReadStall;
  }
  if (stall_cycles(StallPath::kB) >= rt_.prot_timeout) {
    return FaultCause::kRespStall;
  }
  return FaultCause::kNone;
}

std::optional<Cycle> ProtectionUnit::oldest_issue() const {
  std::optional<Cycle> oldest;
  if (!reads_.empty()) oldest = reads_.front().issued_at;
  if (!writes_.empty() &&
      (!oldest.has_value() || writes_.front().issued_at < *oldest)) {
    oldest = writes_.front().issued_at;
  }
  return oldest;
}

void ProtectionUnit::restamp(Cycle now) {
  for (auto& r : reads_) r.issued_at = now;
  for (auto& w : writes_) w.issued_at = now;
}

void ProtectionUnit::clear_stalls() {
  stall_ = {};
  malformed_ = false;
}

}  // namespace axihc
