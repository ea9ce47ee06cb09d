#include "config/keys.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <ranges>
#include <string>

#include "common/check.hpp"

namespace axihc {

namespace {

constexpr std::uint64_t kU32 = UINT32_MAX;

/// An [haN] row, read only by the HA `types` (space-separated; nullptr =
/// every type). Any other type rejects the key rather than ignore it.
constexpr ConfigKey ha(std::string_view key, const char* fallback,
                       const char* types, const char* choices = nullptr,
                       std::uint64_t min = 0, std::uint64_t max = UINT64_MAX) {
  return {"ha", key, fallback, choices, min, max, types};
}

constexpr ConfigKey kKeys[] = {
    {"system", "platform", "zcu102", "zcu102 zynq7020"},
    {"system", "interconnect", "hyperconnect", "hyperconnect smartconnect"},
    {"system", "ports", "2", nullptr, 1, kU32},
    {"system", "cycles", "1000000"},
    {"system", "mem_bytes", "0"},  // 0 = unbounded decode
    {"system", "fault_seed", "0"},
    {"hyperconnect", "nominal_burst", "16", nullptr, 0, kU32},
    {"hyperconnect", "max_outstanding", "4", nullptr, 1, kU32},
    {"hyperconnect", "reservation_period", "0"},  // 0 = no reservation
    {"hyperconnect", "budgets", ""},
    {"hyperconnect", "prot_timeout", "0"},
    {"hyperconnect", "out_of_order", "false"},
    {"hyperconnect", "data_depth", "32", nullptr, 1, kU32},
    {"hyperconnect", "addr_depth", "4", nullptr, 1, kU32},
    // What to observe is chosen by axihc flags, never by the config.
    {"observe", "trace_capacity", "0"},  // 0 = unbounded
    {"observe", "flight_capacity", "4096", nullptr, 1},
    {"recovery", "poll_period", "500", nullptr, 1},
    {"recovery", "max_txns_per_poll", "0"},  // 0 = off
    {"recovery", "backoff_base", "1000", nullptr, 1},
    {"recovery", "backoff_max", "16000"},
    {"recovery", "probation_window", "2000"},
    {"recovery", "max_attempts", "4", nullptr, 1, kU32},
    {"recovery", "drain_timeout", "4000"},
    {"campaign", "runs", "100", nullptr, 1},
    {"campaign", "seed", "1"},
    {"campaign", "cycles", "0"},  // 0 = [system] cycles
    {"campaign", "min_faults", "1", nullptr, 0, kU32},
    {"campaign", "max_faults", "3", nullptr, 0, kU32},
    {"campaign", "kinds", ""},  // empty = every injector kind
    {"campaign", "ports", ""},  // empty = every [haN] port
    {"campaign", "start_min", nullptr},  // cycles / 10
    {"campaign", "start_max", nullptr},  // cycles / 2
    // Campaigns sweep transient windows; duration 0 would be permanent.
    {"campaign", "duration_min", "200", nullptr, 1},
    {"campaign", "duration_max", "2000"},
    {"campaign", "probability", "1.0"},
    {"sweep", "name", "sweep"},
    {"sweep", "cycles", "0"},  // 0 = [system] cycles
    ha("type", nullptr, nullptr, "dma traffic dnn"),
    ha("mode", "readwrite", "dma", "read write readwrite copy"),
    ha("bytes_per_job", "1048576", "dma", nullptr, 1),
    ha("burst", "16", "dma traffic", nullptr, 1, 256),  // AXI4 INCR
    ha("outstanding", "8", "dma traffic", nullptr, 1, kU32),
    ha("max_jobs", "0", "dma"),
    ha("read_base", nullptr, "dma"),   // 0x1000'0000 + (port << 26)
    ha("write_base", nullptr, "dma"),  // 0x2000'0000 + (port << 26)
    ha("direction", "read", "traffic", "read write mixed"),
    ha("gap", "0", "traffic"),
    ha("base", nullptr, "traffic"),  // 0x4000'0000 + (port << 26)
    ha("network", "googlenet", "dnn", "googlenet alexnet"),
    ha("scale", "1", "dnn", nullptr, 1),
    ha("macs_per_cycle", "256", "dnn", nullptr, 1),
    ha("max_frames", "0", "dnn"),
    {"fault", "kind", nullptr},
    {"fault", "port", "0", nullptr, 0, kU32},
    {"fault", "start", "0"},
    {"fault", "duration", "0"},  // 0 = forever
    {"fault", "param", "0"},
    {"fault", "probability", "1.0"},
    {"fault", "base", "0"},  // mem_slverr window
    {"fault", "bytes", "4096"},
    {"mem", "base", "0"},
    {"mem", "bytes", "0"},
};

constexpr std::string_view kSingle[] = {"system",   "hyperconnect", "observe",
                                        "recovery", "campaign",     "sweep"};
constexpr std::string_view kRepeating[] = {"ha", "fault", "mem"};

/// True when `value` is one of the space-separated words of `choices`.
bool one_of(std::string_view choices, std::string_view value) {
  for (const auto word : std::views::split(choices, ' ')) {
    if (std::string_view(word.begin(), word.end()) == value) return true;
  }
  return false;
}

}  // namespace

std::span<const ConfigKey> config_keys() { return kKeys; }

std::string_view config_family(std::string_view section) {
  for (const std::string_view f : kSingle) {
    if (section == f) return f;
  }
  for (const std::string_view f : kRepeating) {
    if (section.size() > f.size() && section.starts_with(f) &&
        std::all_of(section.begin() + f.size(), section.end(),
                    [](unsigned char c) { return std::isdigit(c); })) {
      return f;
    }
  }
  return {};
}

const ConfigKey* find_config_key(std::string_view section,
                                 std::string_view key) {
  const std::string_view family = config_family(section);
  for (const ConfigKey& row : kKeys) {
    if (row.family == family && row.key == key) return &row;
  }
  return nullptr;
}

void check_ha_type_reads(std::string_view section, const ConfigKey& row,
                         std::string_view type) {
  if (row.types == nullptr ||
      !one_of(find_config_key(section, "type")->choices, type)) {
    return;
  }
  AXIHC_REQUIRE(one_of(row.types, type),
                "[" << section << "] " << row.key << " is not read by type = "
                    << type << " (only by: " << row.types << ")");
}

void check_config(const IniFile& ini) {
  std::map<std::string_view, std::size_t> count;  // sections per family
  for (const IniSection& s : ini.sections()) {
    const std::string_view family = config_family(s.name());
    AXIHC_REQUIRE(!family.empty(), "unknown section [" << s.name() << "]");
    const std::size_t i = count[family]++;
    if (family == s.name()) {
      AXIHC_REQUIRE(i == 0, "section [" << s.name() << "] appears twice");
    } else {
      const std::string expected = std::string(family) + std::to_string(i);
      AXIHC_REQUIRE(s.name() == expected,
                    "section [" << s.name() << "] must be named ["
                                << expected << "]: it is the [" << family
                                << "N] section at index " << i
                                << " in file order");
    }
    for (const auto& [key, value] : s.entries()) {
      if (family == "sweep" && key.starts_with("axis.")) continue;
      const ConfigKey* row = find_config_key(s.name(), key);
      AXIHC_REQUIRE(row != nullptr,
                    "[" << s.name() << "] unknown key '" << key << "'");
      AXIHC_REQUIRE(row->choices == nullptr || one_of(row->choices, value),
                    "[" << s.name() << "] " << key << " = '" << value
                        << "' is not one of: " << row->choices);
      if (const std::string* type = s.find("type")) {
        check_ha_type_reads(s.name(), *row, *type);
      }
    }
  }
}

}  // namespace axihc
