// Minimal INI parser for experiment configuration files.
//
//   [section]
//   key = value        ; or # comments
//   list = 1 2 3       (space-separated)
//
// Section names repeat freely ([ha0], [ha1], ...). Lookups are typed with
// defaults; unknown keys are detectable so the system builder can reject
// typos instead of silently ignoring them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace axihc {

class IniSection {
 public:
  explicit IniSection(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  void set(const std::string& key, const std::string& value);
  /// Replaces the first occurrence of `key` (the one every get_* reads), or
  /// appends when absent — the sweep engine's axis-override primitive.
  void replace(const std::string& key, const std::string& value);
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback = "") const;
  /// Throws ModelError if present but not an unsigned integer (a leading
  /// '-' included).
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  /// get_u64 that also rejects values above 0xFFFFFFFF, for keys stored in
  /// 32 bits.
  [[nodiscard]] std::uint32_t get_u32(const std::string& key,
                                      std::uint32_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
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
