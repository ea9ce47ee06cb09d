// Trace format shared by recorders (an AxiMonitor's trace sink) and players
// (TracePlayer): one address request per line,
//   <issue_cycle> R|W <hex_address> <beats>
// with '#' comments. Traces close the loop between real systems and this
// simulator: capture an HA's address stream, replay it against either
// interconnect.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace axihc {

struct TraceEntry {
  Cycle issue_at = 0;
  bool is_write = false;
  Addr addr = 0;
  BeatCount beats = 1;
};

/// Parses the text trace format. Throws ModelError on malformed input.
[[nodiscard]] std::vector<TraceEntry> parse_trace(std::istream& in);
[[nodiscard]] std::vector<TraceEntry> parse_trace(const std::string& text);

/// Serializes entries in the text trace format.
void write_trace(std::ostream& os, const std::vector<TraceEntry>& entries);

}  // namespace axihc
