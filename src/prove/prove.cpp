#include "prove/prove.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/json_write.hpp"

namespace axihc {

namespace {

std::string quoted(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

// ---------------------------------------------------------------------------
// reservation: starvation-freedom, feasibility

ProveCheck check_reservation(const ProveInput& in) {
  ProveCheck c;
  c.id = "reservation";
  if (!in.hyperconnect) {
    c.verdict = ProveVerdict::kUnmodeled;
    c.detail = "SmartConnect baseline: no reservation unit to analyse";
    return c;
  }

  if (in.analysis.reservation_period == 0) {
    c.facts.emplace_back("reservation", "\"off\"");
    c.verdict = ProveVerdict::kProven;
    c.detail =
        "reservation disabled: fixed-granularity round-robin alone "
        "guarantees every backlogged port a grant each round "
        "(starvation-free by construction)";
    return c;
  }

  std::vector<std::uint32_t> budgets = in.analysis.budgets;
  budgets.resize(in.num_ports, 0);

  // Starvation: the central unit recharges a zero budget to zero, so the
  // TS never issues for that port again — an attached HA wedges forever.
  std::vector<std::string> starved;
  for (std::size_t p = 0; p < in.has.size(); ++p) {
    if (budgets[p] != 0) continue;
    std::ostringstream os;
    os << "port " << p << " (" << in.has[p].name
       << ") has budget 0 under an active reservation (period "
       << in.analysis.reservation_period
       << "): the transaction supervisor never issues for it, so the "
          "attached HA starves";
    starved.push_back(os.str());
  }

  HcAnalysisConfig feas = in.analysis;
  feas.budgets = budgets;
  const bool feasible = reservation_feasible(feas, in.platform);
  const std::uint64_t demand = reservation_demand(feas, in.platform);

  c.facts.emplace_back("reservation", "\"on\"");
  {
    // The certificate must state the plan it certifies: two plans with
    // equal total demand are different guarantees per port.
    std::ostringstream os;
    os << "[";
    for (std::size_t p = 0; p < budgets.size(); ++p) {
      os << (p != 0 ? "," : "") << budgets[p];
    }
    os << "]";
    c.facts.emplace_back("budgets", os.str());
  }
  c.facts.emplace_back("period",
                       std::to_string(in.analysis.reservation_period));
  c.facts.emplace_back("demand", std::to_string(demand));
  c.facts.emplace_back("feasible", feasible ? "true" : "false");

  std::ostringstream os;
  if (starved.empty()) {
    c.verdict = ProveVerdict::kProven;
    os << "every attached port has a nonzero budget (starvation-free); "
       << "plan demand " << demand << " cycles per " <<
        in.analysis.reservation_period << "-cycle period ("
       << (feasible
               ? "feasible: the supply-bound WCLA form applies"
               : "overcommitted: budgets cannot all be served at "
                 "worst-case memory timing, so only the composite "
                 "supply+arbitration bound is sound and the guarantees "
                 "are weaker than the budget split suggests");
    os << ")";
  } else {
    c.verdict = ProveVerdict::kDisproved;
    for (std::size_t i = 0; i < starved.size(); ++i) {
      if (i != 0) os << "; ";
      os << starved[i];
    }
  }
  c.detail = os.str();
  return c;
}

// ---------------------------------------------------------------------------
// wcla-bound: boundedness classification + per-port bounds

ProveCheck check_wcla(const ProveInput& in, ProveReport& report) {
  ProveCheck c;
  c.id = "wcla-bound";

  const std::vector<std::string> excluded = wcla_exclusions(in);
  if (!excluded.empty()) {
    c.verdict = ProveVerdict::kUnmodeled;
    std::ostringstream os;
    os << "no analytic latency bound for this configuration (";
    for (std::size_t i = 0; i < excluded.size(); ++i) {
      if (i != 0) os << ", ";
      os << excluded[i];
    }
    os << ") — the same exclusions as the runtime latency auditor";
    c.detail = os.str();
    c.facts.emplace_back("modeled", "false");
    return c;
  }

  HcAnalysisConfig acfg = in.analysis;
  acfg.budgets.resize(in.num_ports, 0);
  const bool reservation_on = acfg.reservation_period != 0;
  Cycle worst = 0;
  bool starved = false;
  for (std::size_t p = 0; p < in.has.size(); ++p) {
    const ProveHaModel& ha = in.has[p];
    if (reservation_on && acfg.budgets[p] == 0) {
      // No finite bound exists for a starved port; the reservation check
      // disproves the system, this check just refuses to certify a number.
      report.wcrt_read.push_back(0);
      report.wcrt_write.push_back(0);
      starved = true;
      continue;
    }
    const Cycle rd =
        ha.reads ? wcrt_read(acfg, in.platform, static_cast<PortIndex>(p),
                             ha.burst_beats)
                 : 0;
    const Cycle wr =
        ha.writes ? wcrt_write(acfg, in.platform, static_cast<PortIndex>(p),
                               ha.burst_beats)
                  : 0;
    report.wcrt_read.push_back(rd);
    report.wcrt_write.push_back(wr);
    worst = std::max({worst, rd, wr});
  }

  c.facts.emplace_back("modeled", "true");
  c.facts.emplace_back("worst_wcrt", std::to_string(worst));
  if (starved) {
    c.verdict = ProveVerdict::kDisproved;
    c.detail =
        "a zero-budget port under an active reservation has no finite "
        "latency bound (see the reservation check)";
  } else {
    c.verdict = ProveVerdict::kProven;
    std::ostringstream os;
    os << "WCLA model covers this configuration; worst accept-to-complete "
          "bound over attached ports: "
       << worst
       << " cycles (analysis::wcrt_*, the same bounds the runtime "
          "latency auditor enforces per transaction)";
    c.detail = os.str();
  }
  return c;
}

// ---------------------------------------------------------------------------
// address-map: HA job windows vs each other and the decode map

std::string range_str(const AddrRange& r) {
  std::ostringstream os;
  os << std::hex << "[0x" << r.base << ", 0x" << r.base + r.bytes << ")";
  return os.str();
}

ProveCheck check_address_map(const ProveInput& in) {
  ProveCheck c;
  c.id = "address-map";

  std::vector<const ProveWindow*> windows;
  for (const ProveHaModel& ha : in.has) {
    for (const ProveWindow& w : ha.windows) {
      if (w.range.bytes != 0) windows.push_back(&w);
    }
  }

  // A burst decodes only when one entry holds all of it, so a window no
  // single entry contains completes (partly) with DECERR: the HA's jobs on
  // it cannot succeed.
  std::vector<std::string> findings;
  std::string unmapped = "[";
  if (!in.decode.empty()) {
    for (const ProveWindow* w : windows) {
      const bool covered = std::any_of(
          in.decode.begin(), in.decode.end(), [&](const AddrRange& d) {
            return d.contains_span(w->range.base, w->range.bytes);
          });
      if (covered) continue;
      unmapped += (unmapped.size() > 1 ? "," : "") + quoted(w->name);
      findings.push_back(w->name + " " + range_str(w->range) +
                         " lies outside every decode entry (DECERR)");
    }
  }
  c.verdict = findings.empty() ? ProveVerdict::kProven
                               : ProveVerdict::kDisproved;
  // Two HAs sharing bytes is a fact: producer/consumer sharing is
  // legitimate.
  std::string shared = "[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const ProveWindow& a = *windows[i];
    for (std::size_t j = i + 1; j < windows.size(); ++j) {
      const ProveWindow& b = *windows[j];
      if (!a.range.overlaps(b.range.base, b.range.bytes)) continue;
      shared += (shared.size() > 1 ? "," : "") +
                quoted(a.name + " / " + b.name);
      findings.push_back(a.name + " " + range_str(a.range) +
                         " shares bytes with " + b.name + " " +
                         range_str(b.range));
    }
  }
  c.facts.emplace_back("shared_windows", shared + "]");
  c.facts.emplace_back("unmapped_windows", unmapped + "]");

  // A disproof leads with the unmapped windows it names.
  std::ostringstream os;
  if (c.verdict == ProveVerdict::kProven) {
    os << windows.size() << " HA job window(s)";
    if (findings.empty()) {
      os << ", pairwise disjoint"
         << (in.decode.empty() ? "" : " and inside the decode map");
    } else {
      os << ": ";
    }
  }
  for (std::size_t i = 0; i < findings.size(); ++i) {
    os << (i == 0 ? "" : "; ") << findings[i];
  }
  c.detail = os.str();
  return c;
}

}  // namespace

std::vector<std::string> wcla_exclusions(const ProveInput& in) {
  std::vector<std::string> excluded;
  if (!in.hyperconnect) excluded.emplace_back("SmartConnect interconnect");
  if (in.out_of_order) {
    excluded.emplace_back("out-of-order ID-extension mode");
  }
  if (!in.in_order_memory) {
    excluded.emplace_back("non-in-order (FR-FCFS) memory scheduling");
  }
  return excluded;
}

const char* to_string(ProveVerdict verdict) {
  switch (verdict) {
    case ProveVerdict::kProven:
      return "proven";
    case ProveVerdict::kDisproved:
      return "disproved";
    case ProveVerdict::kUnmodeled:
      return "unmodeled";
  }
  return "?";
}

ProveVerdict ProveReport::verdict() const {
  ProveVerdict v = ProveVerdict::kProven;
  for (const ProveCheck& c : checks) {
    if (c.verdict == ProveVerdict::kDisproved) return c.verdict;
    if (c.verdict == ProveVerdict::kUnmodeled) v = c.verdict;
  }
  return v;
}

const ProveCheck* ProveReport::check(const std::string& id) const {
  for (const ProveCheck& c : checks) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

std::string ProveReport::certificate_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"axihc-prove-v3\",\"verdict\":\""
     << to_string(verdict()) << "\",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const ProveCheck& c = checks[i];
    if (i != 0) os << ",";
    os << "{\"id\":\"" << c.id << "\",\"verdict\":\""
       << to_string(c.verdict) << "\",\"detail\":\""
       << json_escape(c.detail) << "\"";
    for (const auto& [key, value] : c.facts) {
      os << ",\"" << key << "\":" << value;
    }
    os << "}";
  }
  os << "],\"ports\":[";
  for (std::size_t p = 0; p < wcrt_read.size(); ++p) {
    if (p != 0) os << ",";
    os << "{\"port\":" << p << ",\"wcrt_read\":" << wcrt_read[p]
       << ",\"wcrt_write\":" << wcrt_write[p] << "}";
  }
  os << "]}";
  return os.str();
}

std::uint64_t ProveReport::certificate_digest() const {
  // FNV-1a over the certificate text: cheap, stable, and good enough to
  // fingerprint a certificate inside a cache entry (the cache key itself
  // already carries the collision-relevant config + code digests).
  std::uint64_t h = 14695981039346656037ull;
  for (const char ch : certificate_json()) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

void ProveReport::write_text(std::ostream& os) const {
  for (const ProveCheck& c : checks) {
    os << "  [" << to_string(c.verdict) << "] " << c.id << ": " << c.detail
       << "\n";
  }
  os << "verdict: " << to_string(verdict()) << "\n";
}

ProveReport prove(const ProveInput& in) {
  AXIHC_CHECK_MSG(in.num_ports >= 1, "prove: a system needs ports");
  AXIHC_CHECK_MSG(in.has.size() <= in.num_ports,
                  "prove: more HA models than ports");
  ProveReport report;
  report.checks.push_back(check_reservation(in));
  report.checks.push_back(check_wcla(in, report));
  report.checks.push_back(check_address_map(in));
  return report;
}

}  // namespace axihc
