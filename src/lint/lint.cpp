#include "lint/lint.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <unordered_set>

#include "axi/axi.hpp"
#include "sim/channel.hpp"
#include "sim/component.hpp"
#include "sim/phase_check.hpp"

namespace axihc {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string hex(Addr a) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(a));
  return buf;
}

std::string range_str(const AddrRange& r) {
  return "[" + hex(r.base) + ", " + hex(r.base + r.bytes) + ")";
}

}  // namespace

const char* to_string(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kNote:
      return "note";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "?";
}

void LintReport::add(LintFinding finding) {
  findings_.push_back(std::move(finding));
}

std::size_t LintReport::count(LintSeverity severity) const {
  std::size_t n = 0;
  for (const auto& f : findings_) {
    if (f.severity == severity) ++n;
  }
  return n;
}

bool LintReport::has_check(const std::string& check) const {
  return std::any_of(findings_.begin(), findings_.end(),
                     [&](const LintFinding& f) { return f.check == check; });
}

void LintReport::write_text(std::ostream& os) const {
  for (const auto& f : findings_) {
    os << to_string(f.severity) << ": [" << f.check << "] " << f.subject
       << ": " << f.message << "\n";
    if (!f.hint.empty()) os << "    hint: " << f.hint << "\n";
  }
  os << "lint: " << count(LintSeverity::kError) << " error(s), "
     << count(LintSeverity::kWarning) << " warning(s), "
     << count(LintSeverity::kNote) << " note(s)\n";
}

void LintReport::write_json(std::ostream& os) const {
  std::string out = "{\"findings\":[";
  bool first = true;
  for (const auto& f : findings_) {
    if (!first) out += ",";
    first = false;
    out += "{\"severity\":\"";
    out += to_string(f.severity);
    out += "\",\"check\":\"";
    append_escaped(out, f.check);
    out += "\",\"subject\":\"";
    append_escaped(out, f.subject);
    out += "\",\"message\":\"";
    append_escaped(out, f.message);
    out += "\",\"hint\":\"";
    append_escaped(out, f.hint);
    out += "\"}";
  }
  out += "],\"errors\":" + std::to_string(count(LintSeverity::kError));
  out += ",\"warnings\":" + std::to_string(count(LintSeverity::kWarning));
  out += ",\"notes\":" + std::to_string(count(LintSeverity::kNote));
  out += "}\n";
  os << out;
}

void DesignRuleChecker::expect_connected(const AxiLink& link,
                                         std::string role) {
  links_.push_back({&link, std::move(role)});
}

void DesignRuleChecker::add_address_range(std::string owner, AddrRange range,
                                          AddressKind kind) {
  ranges_.push_back({std::move(owner), range, kind});
}

void DesignRuleChecker::add_bridge(std::string name, const AxiLink& upstream,
                                   const AxiLink& downstream) {
  bridges_.push_back({std::move(name), &upstream, &downstream});
}

void DesignRuleChecker::require_id_headroom(const AxiLink& link,
                                            std::uint32_t max_id_bits,
                                            std::string reason) {
  id_rules_.push_back({&link, max_id_bits, std::move(reason)});
}

LintReport DesignRuleChecker::run() const {
  LintReport report;
  check_connectivity(report);
  check_address_map(report);
  check_widths(report);
  check_phase_races(report);
  return report;
}

void DesignRuleChecker::check_connectivity(LintReport& report) const {
  for (const auto& exp : links_) {
    // A bundle counts as connected when at least two distinct components
    // attached to it (e.g. the interconnect terminating the port and the HA
    // mastering it). Per-channel declarations all flow through
    // attach_endpoint, so the union over the five channels suffices.
    std::unordered_set<const Component*> attached;
    const ChannelBase* chans[] = {&exp.link->ar, &exp.link->r, &exp.link->aw,
                                  &exp.link->w, &exp.link->b};
    for (const ChannelBase* ch : chans) {
      for (const Component* c : ch->endpoints()) attached.insert(c);
    }
    if (attached.size() < 2) {
      report.add({LintSeverity::kWarning, "unconnected-link",
                  exp.link->name(),
                  exp.role + " has " + std::to_string(attached.size()) +
                      " attached component(s); a connected bundle needs a "
                      "producer and a consumer",
                  "attach the missing master/slave (or drop the unused "
                  "port from the configuration)"});
    }
  }
}

void DesignRuleChecker::check_address_map(LintReport& report) const {
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    const NamedRange& a = ranges_[i];
    if (a.range.bytes == 0) continue;
    for (std::size_t j = i + 1; j < ranges_.size(); ++j) {
      const NamedRange& b = ranges_[j];
      if (b.range.bytes == 0) continue;
      if (!a.range.overlaps(b.range.base, b.range.bytes)) continue;
      if (a.kind == AddressKind::kDecode && b.kind == AddressKind::kDecode) {
        report.add({LintSeverity::kError, "address-overlap",
                    a.owner + " / " + b.owner,
                    "decode-map entries " + range_str(a.range) + " and " +
                        range_str(b.range) + " overlap (aliased decode)",
                    "make the decode map disjoint"});
      } else if (a.kind == AddressKind::kMasterWindow &&
                 b.kind == AddressKind::kMasterWindow &&
                 a.owner != b.owner) {
        report.add({LintSeverity::kWarning, "address-overlap",
                    a.owner + " / " + b.owner,
                    "HA job windows " + range_str(a.range) + " and " +
                        range_str(b.range) +
                        " share bytes — two accelerators (potentially in "
                        "different domains) write the same buffer",
                    "separate the base addresses, or confirm the sharing "
                    "is intended"});
      }
      // kErrorWindow overlaps are intentional (SLVERR windows target
      // mapped memory by construction).
    }
  }

  // Containment: with a decode map present, a master window that no single
  // decode entry covers will complete with DECERR at the memory controller
  // (resolve_resp requires the whole burst inside one entry).
  const bool have_decode =
      std::any_of(ranges_.begin(), ranges_.end(), [](const NamedRange& r) {
        return r.kind == AddressKind::kDecode && r.range.bytes != 0;
      });
  if (!have_decode) return;
  for (const NamedRange& w : ranges_) {
    if (w.kind != AddressKind::kMasterWindow || w.range.bytes == 0) continue;
    const bool covered =
        std::any_of(ranges_.begin(), ranges_.end(), [&](const NamedRange& d) {
          return d.kind == AddressKind::kDecode &&
                 d.range.contains_span(w.range.base, w.range.bytes);
        });
    if (!covered) {
      report.add({LintSeverity::kWarning, "address-unmapped", w.owner,
                  "HA job window " + range_str(w.range) +
                      " is not contained in any decode-map entry; accesses "
                      "will complete with DECERR",
                  "grow mem_bytes / the mapped ranges, or move the window"});
    }
  }
}

void DesignRuleChecker::check_widths(LintReport& report) const {
  for (const auto& br : bridges_) {
    if (br.up->data_bits() != br.down->data_bits()) {
      report.add({LintSeverity::kError, "width-mismatch", br.name,
                  "bridge joins a " + std::to_string(br.up->data_bits()) +
                      "-bit link ('" + br.up->name() + "') to a " +
                      std::to_string(br.down->data_bits()) + "-bit link ('" +
                      br.down->name() +
                      "') — a register slice performs no width conversion",
                  "match the data widths or insert a width converter"});
    }
    if (br.up->id_bits() > br.down->id_bits()) {
      report.add({LintSeverity::kError, "width-mismatch", br.name,
                  "bridge narrows AxID from " +
                      std::to_string(br.up->id_bits()) + " to " +
                      std::to_string(br.down->id_bits()) +
                      " bits — upstream IDs would alias downstream",
                  "give the downstream link at least as many ID bits"});
    }
  }
  for (const auto& rule : id_rules_) {
    if (rule.link->id_bits() > rule.max_id_bits) {
      report.add({LintSeverity::kError, "width-mismatch", rule.link->name(),
                  "link carries " + std::to_string(rule.link->id_bits()) +
                      "-bit IDs but " + rule.reason + " only leaves room "
                      "for " + std::to_string(rule.max_id_bits) + " bits",
                  "shrink the HA-side ID width below the extension "
                  "boundary"});
    }
  }
}

void DesignRuleChecker::check_phase_races(LintReport& report) const {
  if (!kPhaseCheckAvailable) {
    report.add({LintSeverity::kNote, "lint-coverage", "phase-check",
                "phase-race check skipped: this build has no channel "
                "instrumentation",
                "reconfigure with -DAXIHC_PHASE_CHECK=ON to run it"});
    return;
  }
  for (const PhaseViolation& v : PhaseCheck::snapshot()) {
    report.add({LintSeverity::kError, "phase-race", v.channel,
                (v.component.empty() ? std::string("<outside tick>")
                                     : v.component) +
                    ": " + v.what + " (epoch " + std::to_string(v.epoch) +
                    ")",
                "keep tick() two-phase: stage pushes, consume committed "
                "elements, and leave commit() to the engine"});
  }
}

}  // namespace axihc
