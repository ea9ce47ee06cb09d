// Minimal INI parser for experiment configuration files.
//
//   [section]
//   key = value        ; or # comments
//   list = 1 2 3       (space-separated)
//
// The parser accepts any section and key name. Which sections and keys an
// experiment may hold, and their defaults, is the table in config/keys.hpp:
// check_config rejects a name without a row, and a getter called without a
// fallback reads the key's default from its row.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace axihc {

/// `s` without leading and trailing whitespace.
[[nodiscard]] std::string trim(const std::string& s);

/// Whole-string unsigned parse (decimal, 0x hex or 0 octal) of at most
/// `max` into `out`: false for "", "-1", "1e3" or "abc" rather than a read
/// of some prefix.
[[nodiscard]] bool parse_unsigned(const std::string& text, std::uint64_t max,
                                  std::uint64_t& out);

class IniSection {
 public:
  explicit IniSection(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  void set(const std::string& key, const std::string& value);
  /// Replaces the first occurrence of `key` (the one every get_* reads), or
  /// appends when absent — the sweep engine's axis-override primitive.
  void replace(const std::string& key, const std::string& value);
  [[nodiscard]] bool has(const std::string& key) const;
  /// The first occurrence of `key` (the one every get_* reads), or null.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  /// Typed getters. A present value that does not parse is a ModelError
  /// naming `[section] key`. An absent key reads as `fallback` when given,
  /// else as its row's default in the config key table (config/keys.hpp);
  /// an absent key whose row has no default is an error ("required").
  /// Integer reads also reject a value outside the key's row range.
  [[nodiscard]] std::string get_string(
      const std::string& key, std::optional<std::string> fallback = {}) const;
  [[nodiscard]] std::uint64_t get_u64(
      const std::string& key, std::optional<std::uint64_t> fallback = {}) const;
  /// get_u64 that also rejects values above 0xFFFFFFFF.
  [[nodiscard]] std::uint32_t get_u32(
      const std::string& key, std::optional<std::uint32_t> fallback = {}) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  std::optional<double> fallback = {}) const;
  [[nodiscard]] bool get_bool(const std::string& key,
                              std::optional<bool> fallback = {}) const;
  /// Space-separated list of unsigned 32-bit integers.
  [[nodiscard]] std::vector<std::uint32_t> get_u32_list(
      const std::string& key) const;

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const {
    return entries_;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

class IniFile {
 public:
  /// Parses INI text; throws ModelError on malformed lines.
  static IniFile parse(const std::string& text);

  /// First section with this name, or nullptr.
  [[nodiscard]] const IniSection* section(const std::string& name) const;
  /// All sections whose name starts with `prefix`, in file order.
  [[nodiscard]] std::vector<const IniSection*> sections_with_prefix(
      const std::string& prefix) const;

  [[nodiscard]] const std::vector<IniSection>& sections() const {
    return sections_;
  }

  /// First section with this name (mutable), or nullptr.
  [[nodiscard]] IniSection* mutable_section(const std::string& name);
  /// Appends a new (possibly duplicate-named) section and returns it.
  IniSection& add_section(const std::string& name);
  /// mutable_section() or add_section() — the sweep engine's override hook.
  IniSection& get_or_add_section(const std::string& name);

 private:
  std::vector<IniSection> sections_;
};

}  // namespace axihc
