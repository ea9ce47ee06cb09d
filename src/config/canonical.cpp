#include "config/canonical.hpp"

#include <map>
#include <sstream>
#include <string_view>

#include "config/keys.hpp"
#include "sim/digest.hpp"

namespace axihc {

std::string canonical_value(const std::string& raw) {
  // Tokenize on whitespace (the parser already trimmed the ends), reprint
  // fully-numeric tokens in decimal, rejoin with single spaces.
  std::istringstream is(raw);
  std::string joined;
  for (std::string token; is >> token;) {
    std::uint64_t v = 0;
    if (parse_unsigned(token, UINT64_MAX, v)) token = std::to_string(v);
    joined += (joined.empty() ? "" : " ") + token;
  }
  if (joined == "yes" || joined == "on") return "true";
  if (joined == "no" || joined == "off") return "false";
  return joined;
}

std::string canonical_ini(const IniFile& ini) {
  // Sorting by name keeps the meaning of file order: check_config makes the
  // i-th [haN] / [faultN] / [memN] section in a file be named with its i.
  // A multimap keeps file order among equal names.
  std::multimap<std::string_view, const IniSection*> sections;
  for (const IniSection& s : ini.sections()) {
    if (s.name() != "observe") sections.emplace(s.name(), &s);
  }

  std::ostringstream os;
  for (const auto& [name, s] : sections) {
    os << "[" << name << "]\n";
    // First occurrence per key (what get_* reads), sorted by key.
    std::map<std::string_view, std::string_view> first;
    for (const auto& [key, value] : s->entries()) first.emplace(key, value);
    for (const auto& [key, value] : first) {
      const std::string canon = canonical_value(std::string(value));
      const ConfigKey* row = find_config_key(name, key);
      if (row == nullptr || row->fallback == nullptr ||
          canon != row->fallback) {
        os << key << " = " << canon << "\n";
      }
    }
  }
  return os.str();
}

std::uint64_t config_digest(const IniFile& ini) {
  StateDigest d;
  d.mix(canonical_ini(ini));
  return d.value();
}

std::uint64_t config_digest(const std::string& ini_text) {
  return config_digest(IniFile::parse(ini_text));
}

}  // namespace axihc
