#include "fault/scenario.hpp"

namespace axihc {

std::optional<FaultKind> fault_kind_from_string(const std::string& s) {
  if (s == "stall_ar") return FaultKind::kStallAr;
  if (s == "stall_aw") return FaultKind::kStallAw;
  if (s == "stall_w") return FaultKind::kStallW;
  if (s == "stall_r") return FaultKind::kStallR;
  if (s == "stall_b") return FaultKind::kStallB;
  if (s == "drop_w") return FaultKind::kDropW;
  if (s == "delay_w") return FaultKind::kDelayW;
  if (s == "truncate_write") return FaultKind::kTruncateWrite;
  if (s == "corrupt_len") return FaultKind::kCorruptLen;
  return std::nullopt;
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStallAr: return "stall_ar";
    case FaultKind::kStallAw: return "stall_aw";
    case FaultKind::kStallW: return "stall_w";
    case FaultKind::kStallR: return "stall_r";
    case FaultKind::kStallB: return "stall_b";
    case FaultKind::kDropW: return "drop_w";
    case FaultKind::kDelayW: return "delay_w";
    case FaultKind::kTruncateWrite: return "truncate_write";
    case FaultKind::kCorruptLen: return "corrupt_len";
  }
  return "?";
}

}  // namespace axihc
