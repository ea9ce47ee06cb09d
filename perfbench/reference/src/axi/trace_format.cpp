#include "axi/trace_format.hpp"

#include <sstream>

#include "axi/axi.hpp"
#include "common/check.hpp"

namespace axihc {

std::vector<TraceEntry> parse_trace(std::istream& in) {
  std::vector<TraceEntry> entries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    TraceEntry e;
    std::string dir;
    if (!(ls >> e.issue_at)) continue;  // blank/comment-only line
    AXIHC_CHECK_MSG(static_cast<bool>(ls >> dir >> std::hex >> e.addr >>
                                      std::dec >> e.beats),
                    "trace line " << line_no << ": malformed");
    AXIHC_CHECK_MSG(dir == "R" || dir == "W",
                    "trace line " << line_no << ": direction must be R or W");
    e.is_write = dir == "W";
    AXIHC_CHECK_MSG(e.beats >= 1 && e.beats <= kMaxAxi4BurstBeats,
                    "trace line " << line_no << ": bad burst length");
    entries.push_back(e);
  }
  return entries;
}

std::vector<TraceEntry> parse_trace(const std::string& text) {
  std::istringstream in(text);
  return parse_trace(in);
}

void write_trace(std::ostream& os, const std::vector<TraceEntry>& entries) {
  for (const auto& e : entries) {
    os << e.issue_at << ' ' << (e.is_write ? 'W' : 'R') << " 0x" << std::hex
       << e.addr << std::dec << ' ' << e.beats << '\n';
  }
}

}  // namespace axihc
