#include "config/ini.hpp"

#include <cctype>
#include <cstdint>
#include <sstream>

#include "common/check.hpp"
#include "config/keys.hpp"

namespace axihc {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// std::stoull alone accepts "-1" (as 2^64 - 1) and skips leading blanks,
// and a later narrowing cast would wrap anything above 32 bits.
bool parse_unsigned(const std::string& text, std::uint64_t max,
                    std::uint64_t& out) {
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return false;
  }
  std::size_t used = 0;
  try {
    out = std::stoull(text, &used, 0);
  } catch (const std::exception&) {
    return false;
  }
  return used == text.size() && out <= max;
}

namespace {

// Whole-value parse of s.get_string(key); a ModelError naming `[section] key`
// on garbage or on a value outside the key's row range.
std::uint64_t to_unsigned(const IniSection& s, const std::string& key,
                          std::uint64_t max) {
  const std::string raw = s.get_string(key);
  std::uint64_t value = 0;
  AXIHC_REQUIRE(parse_unsigned(raw, max, value),
                "[" << s.name() << "] " << key << " = '" << raw
                    << "' is not an unsigned "
                    << (max == UINT32_MAX ? "32-bit " : "") << "integer");
  if (const ConfigKey* row = find_config_key(s.name(), key)) {
    AXIHC_REQUIRE(value >= row->min && value <= row->max,
                  "[" << s.name() << "] " << key << " = " << value
                      << " is out of range [" << row->min << ", "
                      << row->max << "]");
  }
  return value;
}
}  // namespace

void IniSection::set(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, value);
}

void IniSection::replace(const std::string& key, const std::string& value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  entries_.emplace_back(key, value);
}

const std::string* IniSection::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool IniSection::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::string IniSection::get_string(const std::string& key,
                                   std::optional<std::string> fallback) const {
  if (const std::string* value = find(key)) return *value;
  if (fallback.has_value()) return *fallback;
  const ConfigKey* row = find_config_key(name_, key);
  AXIHC_CHECK_MSG(row != nullptr, "[" << name_ << "] " << key
                                      << " has no row in the config table");
  AXIHC_REQUIRE(row->fallback != nullptr,
                "[" << name_ << "] " << key << " is required");
  return row->fallback;
}

std::uint64_t IniSection::get_u64(const std::string& key,
                                  std::optional<std::uint64_t> fallback) const {
  return fallback && !has(key) ? *fallback
                               : to_unsigned(*this, key, UINT64_MAX);
}

std::uint32_t IniSection::get_u32(const std::string& key,
                                  std::optional<std::uint32_t> fallback) const {
  return fallback && !has(key) ? *fallback
                               : static_cast<std::uint32_t>(
                                     to_unsigned(*this, key, UINT32_MAX));
}

double IniSection::get_double(const std::string& key,
                              std::optional<double> fallback) const {
  if (fallback && !has(key)) return *fallback;
  const std::string raw = get_string(key);
  std::size_t used = 0;
  double value = 0;
  try {
    value = std::stod(raw, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  AXIHC_REQUIRE(used == raw.size() && !raw.empty(),
                "[" << name_ << "] " << key << " = '" << raw
                    << "' is not a number");
  return value;
}

bool IniSection::get_bool(const std::string& key,
                          std::optional<bool> fallback) const {
  if (fallback && !has(key)) return *fallback;
  const std::string raw = get_string(key);
  if (raw == "true" || raw == "1" || raw == "yes" || raw == "on") return true;
  AXIHC_REQUIRE(raw == "false" || raw == "0" || raw == "no" || raw == "off",
                "[" << name_ << "] " << key << " = '" << raw
                    << "' is not a boolean");
  return false;
}

std::vector<std::uint32_t> IniSection::get_u32_list(
    const std::string& key) const {
  std::vector<std::uint32_t> out;
  std::istringstream is(get_string(key, ""));
  std::string token;
  while (is >> token) {
    std::uint64_t value = 0;
    AXIHC_REQUIRE(parse_unsigned(token, UINT32_MAX, value),
                  "[" << name_ << "] " << key << ": bad list element '"
                      << token << "' (unsigned 32-bit integers)");
    out.push_back(static_cast<std::uint32_t>(value));
  }
  return out;
}

IniFile IniFile::parse(const std::string& text) {
  IniFile file;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments (';' or '#').
    for (const char marker : {';', '#'}) {
      const auto pos = line.find(marker);
      if (pos != std::string::npos) line.erase(pos);
    }
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;

    if (trimmed.front() == '[') {
      AXIHC_REQUIRE(trimmed.back() == ']',
                    "ini line " << line_no << ": unterminated section");
      const std::string name = trim(trimmed.substr(1, trimmed.size() - 2));
      AXIHC_REQUIRE(!name.empty(), "ini line " << line_no
                                               << ": empty section name");
      file.sections_.emplace_back(name);
      continue;
    }

    const auto eq = trimmed.find('=');
    AXIHC_REQUIRE(eq != std::string::npos,
                  "ini line " << line_no << ": expected key = value");
    AXIHC_REQUIRE(!file.sections_.empty(),
                  "ini line " << line_no << ": key outside any section");
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    AXIHC_REQUIRE(!key.empty(), "ini line " << line_no << ": empty key");
    file.sections_.back().set(key, value);
  }
  return file;
}

const IniSection* IniFile::section(const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

IniSection* IniFile::mutable_section(const std::string& name) {
  for (auto& s : sections_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

IniSection& IniFile::add_section(const std::string& name) {
  sections_.emplace_back(name);
  return sections_.back();
}

IniSection& IniFile::get_or_add_section(const std::string& name) {
  if (IniSection* s = mutable_section(name)) return *s;
  return add_section(name);
}

std::vector<const IniSection*> IniFile::sections_with_prefix(
    const std::string& prefix) const {
  std::vector<const IniSection*> out;
  for (const auto& s : sections_) {
    if (s.name().rfind(prefix, 0) == 0) out.push_back(&s);
  }
  return out;
}

}  // namespace axihc
