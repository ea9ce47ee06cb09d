// Warning lines for simulation diagnostics ("[warn ] ..." on stderr).
// Everything a test or tool needs to inspect is recorded as data instead
// (isolation events, recovery transitions, trace instants).
#pragma once

#include <sstream>
#include <string>

namespace axihc {

namespace detail {
/// Writes one finished line to stderr.
void write_log_line(const std::string& line);

class LogLine {
 public:
  explicit LogLine(const char* tag) { os_ << tag; }
  ~LogLine() { write_log_line(os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace axihc

#define AXIHC_LOG_WARN() ::axihc::detail::LogLine("[warn ] ")
