#include "config/canonical.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

#include "sim/digest.hpp"

namespace axihc {

namespace {

/// Default values per (section pattern, key). A pattern ending in '*'
/// matches by prefix ([ha0], [ha1], ... via "ha*"). The default string may
/// list '|'-separated alternatives when several spellings build the same
/// structure (e.g. [hyperconnect] data_depth: 0 = "unset" and 32 = the
/// AxiLinkConfig default depth are the same hardware).
struct DefaultEntry {
  const char* section;
  const char* key;
  const char* value;
};

constexpr DefaultEntry kDefaults[] = {
    {"system", "platform", "zcu102"},
    {"system", "interconnect", "hyperconnect"},
    {"system", "ports", "2"},
    {"system", "cycles", "1000000"},
    {"system", "mem_bytes", "0"},
    {"system", "fault_seed", "0"},
    {"hyperconnect", "nominal_burst", "16"},
    {"hyperconnect", "max_outstanding", "4"},
    {"hyperconnect", "reservation_period", "0"},
    {"hyperconnect", "prot_timeout", "0"},
    {"hyperconnect", "out_of_order", "false"},
    {"hyperconnect", "arbitration", "round_robin"},
    {"hyperconnect", "data_depth", "0|32"},
    {"hyperconnect", "addr_depth", "0|4"},
    {"observe", "trace", "false"},
    {"observe", "metrics", "false"},
    {"observe", "sample_every", "1000"},
    {"observe", "trace_capacity", "0"},
    {"observe", "latency_audit", "false"},
    {"observe", "flight_capacity", "4096"},
    {"recovery", "poll_period", "500"},
    {"recovery", "max_txns_per_poll", "0"},
    {"recovery", "backoff_base", "1000"},
    {"recovery", "backoff_max", "16000"},
    {"recovery", "probation_window", "2000"},
    {"recovery", "max_attempts", "4"},
    {"recovery", "drain_timeout", "4000"},
    {"ha*", "burst", "16"},
    {"ha*", "outstanding", "8"},
    {"ha*", "mode", "readwrite"},
    {"ha*", "bytes_per_job", "1048576"},
    {"ha*", "max_jobs", "0"},
    {"ha*", "network", "googlenet"},
    {"ha*", "scale", "1"},
    {"ha*", "macs_per_cycle", "256"},
    {"ha*", "max_frames", "0"},
    {"ha*", "direction", "read"},
    {"ha*", "gap", "0"},
    {"ha*", "qos", "0"},
    {"fault*", "port", "0"},
    {"fault*", "start", "0"},
    {"fault*", "duration", "0"},
    {"fault*", "param", "0"},
    {"campaign", "runs", "100"},
    {"campaign", "seed", "1"},
    {"campaign", "cycles", "0"},
    {"campaign", "min_faults", "1"},
    {"campaign", "max_faults", "3"},
    {"sweep", "name", "sweep"},
    {"sweep", "cycles", "0"},
};

bool pattern_matches(const std::string& section, const char* pattern) {
  const std::string p = pattern;
  if (!p.empty() && p.back() == '*') {
    return section.rfind(p.substr(0, p.size() - 1), 0) == 0;
  }
  return section == p;
}

/// True when the canonical value equals the builder default for this key —
/// the key can be dropped without changing the built system.
bool is_default(const std::string& section, const std::string& key,
                const std::string& canonical) {
  for (const DefaultEntry& d : kDefaults) {
    if (d.key != key || !pattern_matches(section, d.section)) continue;
    std::istringstream alts{std::string(d.value)};
    std::string alt;
    while (std::getline(alts, alt, '|')) {
      if (canonical == alt) return true;
    }
    return false;
  }
  return false;
}

}  // namespace

std::string canonical_value(const std::string& raw) {
  // Tokenize on whitespace (the parser already trimmed the ends), reprint
  // fully-numeric tokens in decimal, rejoin with single spaces.
  std::istringstream is(raw);
  std::string token;
  std::vector<std::string> tokens;
  while (is >> token) {
    std::size_t used = 0;
    try {
      const std::uint64_t v = std::stoull(token, &used, 0);
      if (used == token.size()) token = std::to_string(v);
    } catch (const std::exception&) {
      // non-numeric token: keep verbatim
    }
    tokens.push_back(token);
  }
  std::string joined;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i != 0) joined += ' ';
    joined += tokens[i];
  }
  if (joined == "yes" || joined == "on") return "true";
  if (joined == "no" || joined == "off") return "false";
  return joined;
}

std::string canonical_ini(const IniFile& ini) {
  // Stable sort keeps file order among equal names ([haN] names are
  // distinct, so prefix-order semantics survive the sort).
  std::vector<const IniSection*> sections;
  sections.reserve(ini.sections().size());
  for (const IniSection& s : ini.sections()) sections.push_back(&s);
  std::stable_sort(sections.begin(), sections.end(),
                   [](const IniSection* a, const IniSection* b) {
                     return a->name() < b->name();
                   });

  std::ostringstream os;
  for (const IniSection* s : sections) {
    os << "[" << s->name() << "]\n";
    // First occurrence per key (what get_* reads), then sort by key.
    std::vector<std::pair<std::string, std::string>> kept;
    for (const auto& [key, value] : s->entries()) {
      const bool seen =
          std::any_of(kept.begin(), kept.end(),
                      [&key](const auto& kv) { return kv.first == key; });
      if (seen) continue;
      const std::string canon = canonical_value(value);
      if (is_default(s->name(), key, canon)) continue;
      kept.emplace_back(key, canon);
    }
    std::stable_sort(kept.begin(), kept.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [key, value] : kept) {
      os << key << " = " << value << "\n";
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
