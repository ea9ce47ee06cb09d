// Design-space-exploration sweep specs (`axihc --sweep <spec.ini>`).
//
// A sweep file is a normal experiment description (the base system:
// [system], [hyperconnect], [haN], ...) plus one [sweep] section declaring
// the axes to explore. Every axis targets one `section.key` of the base
// description and lists the values it takes:
//
//   [sweep]
//   name = fig5_grid           ; label carried into rows/reports
//   cycles = 200000            ; per-cell horizon; 0 = each cell's [system]
//   axis.hyperconnect.budgets = 64 7 | 50 21 | 36 36 | 21 50 | 7 64
//   axis.hyperconnect.reservation_period = range 1000 4000 1000
//   axis.ha1.gap = 0 | 32
//
// Value syntax: '|'-separated literals (a literal may contain spaces —
// budget lists, for example), or `range lo hi step` expanding to the
// inclusive arithmetic progression lo, lo+step, ... <= hi.
//
// The spec expands to the cartesian product of its axes in file order, the
// LAST axis varying fastest. Cell `i` of the sweep is a pure function of
// (spec, i): the base description minus [sweep], with each axis key
// replaced by its cell value (sections are created when the base lacks
// them) and [system] cycles overridden when the spec sets a horizon. That
// purity is what makes the result cache (runner.hpp) and shard fan-out
// (`--sweep-shard i/N`) safe: every process computes identical cells.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "config/ini.hpp"

namespace axihc {

struct SweepAxis {
  std::string section;
  std::string key;
  std::vector<std::string> values;

  [[nodiscard]] std::string id() const { return section + "." + key; }
};

struct SweepSpec {
  std::string name;
  /// Per-cell horizon override; 0 = each cell's own [system] cycles.
  Cycle cycles = 0;
  /// Axes in file order; the last axis varies fastest across cells.
  std::vector<SweepAxis> axes;

  /// Cartesian cell count (1 when there are no axes: the base config is
  /// the single cell).
  [[nodiscard]] std::size_t cell_count() const;
  /// Per-axis value index of cell `cell` (mixed-radix decomposition).
  [[nodiscard]] std::vector<std::size_t> cell_indices(std::size_t cell) const;
};

/// Expands one axis value expression ('|' list or `range lo hi step`).
/// Throws ModelError on empty lists/elements and malformed ranges.
[[nodiscard]] std::vector<std::string> expand_axis_values(
    const std::string& raw);

/// Parses + validates the [sweep] section against the base description
/// (throws on a missing section, unknown [sweep] keys, malformed axis
/// declarations, a [campaign] section — campaigns and sweeps are separate
/// products — or a cell count above the 2^20 safety cap).
[[nodiscard]] SweepSpec parse_sweep_spec(const IniFile& ini);

/// The full config of cell `cell`: base minus [sweep], axis overrides
/// applied, horizon override materialized into [system] cycles (so the
/// config digest covers it). Pure function of (ini, spec, cell).
[[nodiscard]] IniFile sweep_cell_config(const IniFile& ini,
                                        const SweepSpec& spec,
                                        std::size_t cell);

}  // namespace axihc
