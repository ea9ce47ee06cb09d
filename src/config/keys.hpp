// The config key table: every (section family, key) an experiment INI may
// hold, with the key's default, and the accepted range of an integer key or
// the accepted values of a string key. It is the one place a default is
// written:
//
//  * IniSection's getters, called without a fallback, return the row's
//    default when the key is absent; integer getters reject a value outside
//    the row's range, naming `[section] key`;
//  * canonical_ini drops a value exactly when it equals its row's default;
//  * check_config rejects every section and key without a row, every
//    value outside its row's choices, and every [haN] key its type does not
//    read; parse_sweep_spec rejects the same axis targets.
//
// Families: system, hyperconnect, observe, recovery, campaign and sweep are
// single sections; ha<N>, fault<N> and mem<N> (N decimal digits) repeat.
// The i-th section of a repeating family in file order must be named
// <family><i>: HAs take interconnect ports in file order, so the name has to
// say which port (and canonical_ini, which sorts by name, has to agree).
//
// A row whose default is null ("none") has no context-free default: an HA's
// buffer bases depend on its port, a campaign's start window on its horizon,
// and `type`/`kind` are required. Such values are never elided, and callers
// pass the fallback they compute.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "config/ini.hpp"

namespace axihc {

struct ConfigKey {
  std::string_view family;
  std::string_view key;
  /// Default in canonical form (see canonical_value), or nullptr for none.
  const char* fallback;
  /// The values a string key admits, space-separated; nullptr = any.
  const char* choices = nullptr;
  /// Accepted range of an integer key.
  std::uint64_t min = 0;
  std::uint64_t max = UINT64_MAX;
  /// [haN] rows: the HA types that read the key, space-separated; nullptr =
  /// every type.
  const char* types = nullptr;
};

/// Every row, grouped by family.
[[nodiscard]] std::span<const ConfigKey> config_keys();

/// The family a section name belongs to, or "" when it has none.
[[nodiscard]] std::string_view config_family(std::string_view section);

/// The row for `key` in `section`'s family, or nullptr. Allocation-free.
[[nodiscard]] const ConfigKey* find_config_key(std::string_view section,
                                               std::string_view key);

/// Rejects (ModelError naming `[section] key` and `type`) a row that an HA of
/// `type` never reads. `type` outside the row's family choices is left to
/// the choices check.
void check_ha_type_reads(std::string_view section, const ConfigKey& row,
                         std::string_view type);

/// Rejects (ModelError naming it) a section or key without a row, a value
/// outside its row's choices, an [haN] key its type never reads, a repeated
/// single section, and a section of a repeating family not named
/// <family><its index in file order>. [sweep] axis.* keys are left to
/// parse_sweep_spec, which looks each target up with find_config_key and
/// check_ha_type_reads.
void check_config(const IniFile& ini);

}  // namespace axihc
