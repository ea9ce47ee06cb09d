#include "sweep/sweep.hpp"

#include <sstream>

#include "common/check.hpp"
#include "config/keys.hpp"

namespace axihc {

namespace {

constexpr std::size_t kMaxCells = std::size_t{1} << 20;

std::uint64_t parse_range_term(const std::string& token,
                               const std::string& raw) {
  std::uint64_t v = 0;
  AXIHC_REQUIRE(parse_unsigned(token, UINT64_MAX, v),
                "[sweep] range term '" << token << "' is not a number in '"
                                       << raw << "'");
  return v;
}

}  // namespace

std::size_t SweepSpec::cell_count() const {
  std::size_t n = 1;
  for (const SweepAxis& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<std::size_t> SweepSpec::cell_indices(std::size_t cell) const {
  AXIHC_CHECK_MSG(cell < cell_count(),
                  "sweep cell " << cell << " out of range (cells="
                                << cell_count() << ")");
  std::vector<std::size_t> idx(axes.size(), 0);
  // Last axis varies fastest: peel radices from the back.
  for (std::size_t i = axes.size(); i-- > 0;) {
    const std::size_t radix = axes[i].values.size();
    idx[i] = cell % radix;
    cell /= radix;
  }
  return idx;
}

std::vector<std::string> expand_axis_values(const std::string& raw) {
  const std::string trimmed = trim(raw);
  if (trimmed.rfind("range ", 0) == 0) {
    std::istringstream in(trimmed.substr(6));
    std::string lo_s;
    std::string hi_s;
    std::string step_s;
    std::string extra;
    in >> lo_s >> hi_s >> step_s;
    AXIHC_REQUIRE(!(in >> extra),
                  "[sweep] range takes exactly 3 terms, got extra '"
                      << extra << "' in '" << raw << "'");
    const std::uint64_t lo = parse_range_term(lo_s, raw);
    const std::uint64_t hi = parse_range_term(hi_s, raw);
    const std::uint64_t step = parse_range_term(step_s, raw);
    AXIHC_REQUIRE(step > 0, "[sweep] range step must be > 0 in '" << raw
                                                                 << "'");
    AXIHC_REQUIRE(lo <= hi, "[sweep] range lo > hi in '" << raw << "'");
    std::vector<std::string> out;
    for (std::uint64_t v = lo; v <= hi; v += step) {
      out.push_back(std::to_string(v));
      if (v > hi - step) break;  // overflow guard for hi near UINT64_MAX
    }
    return out;
  }
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t bar = trimmed.find('|', start);
    const std::string piece =
        trim(bar == std::string::npos ? trimmed.substr(start)
                                      : trimmed.substr(start, bar - start));
    AXIHC_REQUIRE(!piece.empty(),
                  "[sweep] empty value in axis list '" << raw << "'");
    out.push_back(piece);
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  return out;
}

SweepSpec parse_sweep_spec(const IniFile& ini) {
  check_config(ini);
  const IniSection* sw = ini.section("sweep");
  AXIHC_REQUIRE(sw != nullptr, "--sweep needs a [sweep] section");
  AXIHC_REQUIRE(ini.section("campaign") == nullptr,
                "a file cannot hold both [sweep] and [campaign]");

  SweepSpec spec;
  spec.name = sw->get_string("name");
  spec.cycles = sw->get_u64("cycles");

  for (const auto& [key, value] : sw->entries()) {
    if (!key.starts_with("axis.")) continue;  // name, cycles: check_config
    const std::string target = key.substr(5);
    const std::size_t dot = target.find('.');
    AXIHC_REQUIRE(dot != std::string::npos && dot > 0 &&
                      dot + 1 < target.size(),
                  "[sweep] axis '" << key
                                   << "' must name axis.<section>.<key>");
    SweepAxis axis;
    axis.section = target.substr(0, dot);
    axis.key = target.substr(dot + 1);
    AXIHC_REQUIRE(axis.section != "sweep",
                  "[sweep] cannot sweep the [sweep] section itself");
    const ConfigKey* row = find_config_key(axis.section, axis.key);
    AXIHC_REQUIRE(row != nullptr,
                  "[sweep] axis '" << key << "' targets no config key: ["
                                   << axis.section << "] " << axis.key);
    if (const IniSection* target_section = ini.section(axis.section)) {
      if (const std::string* type = target_section->find("type")) {
        check_ha_type_reads(axis.section, *row, *type);
      }
    }
    for (const SweepAxis& existing : spec.axes) {
      AXIHC_REQUIRE(existing.id() != axis.id(),
                    "[sweep] duplicate axis '" << axis.id() << "'");
    }
    axis.values = expand_axis_values(value);
    spec.axes.push_back(std::move(axis));
  }

  AXIHC_REQUIRE(spec.cell_count() <= kMaxCells,
                "sweep expands to " << spec.cell_count()
                                    << " cells (cap " << kMaxCells << ")");
  return spec;
}

IniFile sweep_cell_config(const IniFile& ini, const SweepSpec& spec,
                          std::size_t cell) {
  const std::vector<std::size_t> idx = spec.cell_indices(cell);

  // Base description minus [sweep]: rebuild section by section so repeated
  // names ([ha0], [ha1], ...) survive in file order.
  IniFile cfg;
  for (const IniSection& sec : ini.sections()) {
    if (sec.name() == "sweep") continue;
    IniSection& copy = cfg.add_section(sec.name());
    for (const auto& [k, v] : sec.entries()) copy.set(k, v);
  }

  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const SweepAxis& axis = spec.axes[a];
    cfg.get_or_add_section(axis.section)
        .replace(axis.key, axis.values[idx[a]]);
  }

  if (spec.cycles != 0) {
    cfg.get_or_add_section("system")
        .replace("cycles", std::to_string(spec.cycles));
  }
  return cfg;
}

}  // namespace axihc
