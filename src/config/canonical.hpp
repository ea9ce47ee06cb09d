// Canonical config serialization + digest (`axihc --config-digest`).
//
// Two experiment descriptions that build the SAME system must digest to the
// SAME 64-bit value — this is what makes the sweep result cache
// (src/sweep/runner.hpp) safe to key on configs. Canonicalization:
//
//  * sections are sorted by name (stable, so repeated names keep file
//    order); entries within a section are sorted by key;
//  * duplicate keys collapse to the FIRST occurrence (the one every
//    IniSection::get_* lookup reads);
//  * values are whitespace-normalized (internal runs collapse to one
//    space) and numeric tokens are reprinted in decimal (0x40 == 64);
//    whole-value boolean synonyms normalize (yes/on -> true, no/off ->
//    false);
//  * keys whose normalized value equals their row's default in the config
//    key table (config/keys.hpp) are DROPPED — writing `ports = 2`
//    explicitly does not change the digest of a config that omitted it.
//    Section headers are never dropped (an empty [recovery] is not the same
//    system as no [recovery] at all);
//  * the [observe] section is dropped whole: its buffer sizes bound what an
//    observer keeps, never what is simulated or what a sweep or campaign
//    row reports.
#pragma once

#include <cstdint>
#include <string>

#include "config/ini.hpp"

namespace axihc {

/// One value in canonical form (whitespace/numeric/boolean normalization,
/// no default elision — that needs the section context).
[[nodiscard]] std::string canonical_value(const std::string& raw);

/// The full canonical text form described above.
[[nodiscard]] std::string canonical_ini(const IniFile& ini);

/// FNV-1a over canonical_ini(). Stable across key order, whitespace,
/// comments, numeric base, and explicitly-spelled defaults.
[[nodiscard]] std::uint64_t config_digest(const IniFile& ini);
[[nodiscard]] std::uint64_t config_digest(const std::string& ini_text);

}  // namespace axihc
