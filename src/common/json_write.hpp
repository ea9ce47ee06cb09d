// Value formatting for the JSON-lines writers (sweep rows, campaign rows,
// --prove-json). Every writer formats through these, so equal values print
// byte-identically across outputs.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

namespace axihc {

/// Fixed six-decimal rendering: stable across runs and standard libraries.
inline std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// A 64-bit digest as "0x" plus 16 lowercase hex digits.
inline std::string hex_digest(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, d);
  return buf;
}

/// Escapes quotes, backslashes and newlines for a JSON string body.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace axihc
