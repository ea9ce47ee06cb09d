// Minimal JSON reader for the sweep engine's own JSON-lines output.
//
// The report generator (`axihc --sweep-report`) and the digest pin checker
// (`--sweep-check`) consume files this repo's writers produced, so the
// parser is deliberately small: UTF-8 passthrough, \uXXXX escapes kept
// verbatim, numbers as double plus the raw token (so 64-bit digests printed
// as strings stay exact — the writers quote anything that must round-trip).
// Throws ModelError on malformed input, naming the input and the offset.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace axihc {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw;  ///< number token or string contents
  std::vector<JsonValue> items;                              // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject

  /// Object member lookup (nullptr when absent or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  [[nodiscard]] double num_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  [[nodiscard]] std::string str_or(const std::string& fallback) const {
    return kind == Kind::kString ? raw : fallback;
  }
};

/// Parses one complete JSON document (throws ModelError on malformed input
/// or trailing junk; the message starts with `source`, e.g. "pin line 3").
[[nodiscard]] JsonValue parse_json(const std::string& text,
                                   std::string_view source = "json");

}  // namespace axihc
