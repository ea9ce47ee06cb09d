#include "obs/latency_audit.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "common/check.hpp"

namespace axihc {

namespace {

/// The open transaction a completion retires: matched by (id, issued_at).
/// Completions on an in-order port arrive in accept order, but
/// ID-extension (out-of-order) configurations can reorder them, so scan
/// rather than assume the front.
template <typename Open>
auto find_open(std::vector<Open>& open, const AddrReq& req) {
  return std::find_if(open.begin(), open.end(), [&](const Open& o) {
    return o.id == req.id && o.issued_at == req.issued_at;
  });
}

}  // namespace

LatencyAudit::LatencyAudit(PortIndex num_ports, std::size_t flight_capacity,
                           bool provenance)
    : provenance_(provenance),
      num_ports_(num_ports),
      bound_state_(static_cast<std::size_t>(num_ports) * 2),
      prev_completion_(num_ports, kNoCycle),
      per_port_dir_(static_cast<std::size_t>(num_ports) * 2),
      flight_(flight_capacity) {
  AXIHC_CHECK(num_ports >= 1);
  port_sources_.reserve(num_ports);
  for (PortIndex i = 0; i < num_ports; ++i) {
    port_sources_.push_back("hc.port" + std::to_string(i));
  }
}

void LatencyAudit::set_bound_model(HcAnalysisConfig cfg,
                                   AnalysisPlatform platform) {
  AXIHC_CHECK(cfg.num_ports == num_ports_);
  bound_model_ = std::move(cfg);
  bound_platform_ = platform;
  bound_cache_.clear();
}

void LatencyAudit::set_port_source(PortIndex port, std::string source) {
  AXIHC_CHECK(port < num_ports_);
  port_sources_[port] = std::move(source);
}

void LatencyAudit::register_metrics(MetricsRegistry& reg) {
  reg.add_counter("audit.txns", &txns_);
  reg.add_counter("audit.bound_checked", &bound_checked_);
  reg.add_counter("audit.bound_violations", &bound_violations_);
  reg.add_counter("audit.excluded", &excluded_);
  reg.add_gauge("audit.flight_dropped",
                [this] { return static_cast<double>(flight_.dropped()); });
  reg.add_gauge("audit.max_latency_ratio", [this] { return max_ratio_; });
  for (PortIndex i = 0; i < num_ports_; ++i) {
    const std::string base = "audit.port" + std::to_string(i);
    reg.add_gauge(base + ".read_max", [this, i] {
      return static_cast<double>(state(i, false).max_latency);
    });
    reg.add_gauge(base + ".write_max", [this, i] {
      return static_cast<double>(state(i, true).max_latency);
    });
  }
}

LatencyAudit::BoundState& LatencyAudit::bounds(PortIndex port,
                                               bool is_write) {
  AXIHC_CHECK(port < num_ports_);
  return bound_state_[slot(port, is_write)];
}

const LatencyAudit::BoundState& LatencyAudit::bounds(PortIndex port,
                                                     bool is_write) const {
  AXIHC_CHECK(port < num_ports_);
  return bound_state_[slot(port, is_write)];
}

LatencyAudit::PortDirState& LatencyAudit::state(PortIndex port,
                                                bool is_write) {
  AXIHC_CHECK(port < num_ports_);
  return per_port_dir_[slot(port, is_write)];
}

const LatencyAudit::PortDirState& LatencyAudit::state(PortIndex port,
                                                      bool is_write) const {
  AXIHC_CHECK(port < num_ports_);
  return per_port_dir_[slot(port, is_write)];
}

std::string LatencyAudit::port_source(PortIndex port) const {
  return port_sources_[port];
}

void LatencyAudit::flush_stall(PortDirState& pd, Cycle now) {
  if (!pd.stall_active) return;
  if (pd.open.empty()) {  // defensive: owner vanished (fault prune)
    pd.stall_active = false;
    return;
  }
  const Cycle delta = now - pd.last_eval;
  if (delta != 0) {
    pd.open.back().cause[static_cast<std::size_t>(pd.frozen)] += delta;
  }
  pd.last_eval = now;
}

void LatencyAudit::on_accept(PortIndex port, bool is_write,
                             const AddrReq& orig, Cycle now) {
  BoundState& bs = bounds(port, is_write);
  bs.open.push_back({orig.id, orig.beats, false, orig.issued_at, now});
  if (bs.open.size() > kOpenCap) bs.open.erase(bs.open.begin());  // abandoned
  if (!provenance_) return;
  PortDirState& pd = state(port, is_write);
  FlightRecord rec;
  rec.port = port;
  rec.is_write = is_write;
  rec.id = orig.id;
  rec.beats = orig.beats;
  rec.issued_at = orig.issued_at;  // kNoCycle for non-stamping sources
  rec.accepted_at = now;
  pd.open.push_back(rec);
  if (pd.open.size() > kOpenCap) pd.open.erase(pd.open.begin());
  // The split is now active; until the final sub issues, every cycle is
  // charged to the classifier's frozen cause.
  pd.stall_active = true;
  pd.last_eval = now;
  pd.frozen = LatencyCause::kPipeline;
}

void LatencyAudit::on_sub_issue(PortIndex port, bool is_write, bool is_final,
                                Cycle now) {
  if (!provenance_) return;
  PortDirState& pd = state(port, is_write);
  pd.ts_stage.push_back(is_final);
  if (!is_final) return;
  flush_stall(pd, now);
  pd.stall_active = false;
  if (FlightRecord* rec =
          fill_target(pd, &FlightRecord::final_issued_at)) {
    rec->final_issued_at = now;
  }
}

void LatencyAudit::on_stall_cause(PortIndex port, bool is_write,
                                  LatencyCause cause, Cycle now) {
  if (!provenance_) return;
  PortDirState& pd = state(port, is_write);
  if (!pd.stall_active) return;
  flush_stall(pd, now);
  pd.frozen = cause;
}

FlightRecord* LatencyAudit::fill_target(PortDirState& pd,
                                        Cycle FlightRecord::*field) {
  for (FlightRecord& rec : pd.open) {
    if (rec.*field == kNoCycle) {
      // Hop events arrive in record order; the first record with the field
      // unset is the one this event belongs to. A record can only be
      // filled after its accept, which is guaranteed by construction.
      return &rec;
    }
  }
  return nullptr;  // record already retired (fault-truncated) — drop event
}

void LatencyAudit::on_grant(PortIndex port, bool is_write, Cycle now) {
  if (!provenance_) return;
  PortDirState& pd = state(port, is_write);
  if (pd.ts_stage.empty()) return;  // pre-enable residue
  const bool is_final = pd.ts_stage.front();
  pd.ts_stage.pop_front();
  if (is_final) {
    if (FlightRecord* rec = fill_target(pd, &FlightRecord::granted_at)) {
      if (rec->final_issued_at != kNoCycle) rec->granted_at = now;
    }
  }
  xbar_stage_[is_write ? 1 : 0].push_back({port, is_final});
}

void LatencyAudit::on_hc_exit(bool is_write, Cycle now) {
  if (!provenance_) return;
  auto& stage = xbar_stage_[is_write ? 1 : 0];
  if (stage.empty()) return;  // pre-enable residue
  const StageToken tok = stage.front();
  stage.pop_front();
  if (tok.is_final) {
    PortDirState& pd = state(tok.port, is_write);
    if (FlightRecord* rec = fill_target(pd, &FlightRecord::hc_exit_at)) {
      if (rec->granted_at != kNoCycle) rec->hc_exit_at = now;
    }
  }
  auto& pending = mem_pending_[is_write ? 1 : 0];
  pending.push_back(tok);
  // Systems without memory-stage hooks (FR-FCFS / out-of-order configs)
  // never pop this queue; the cap keeps it bounded. Attached in-order
  // systems stay far below it (in-flight <= EXBAR route capacity).
  if (pending.size() > kOpenCap) pending.pop_front();
}

void LatencyAudit::on_mem_start(bool is_write, Cycle now) {
  if (!provenance_) return;
  auto& pending = mem_pending_[is_write ? 1 : 0];
  if (pending.empty()) return;  // pre-enable residue
  const StageToken tok = pending.front();
  pending.pop_front();
  mem_current_ = tok;
  mem_current_write_ = is_write;
  if (tok.is_final) {
    PortDirState& pd = state(tok.port, is_write);
    if (FlightRecord* rec = fill_target(pd, &FlightRecord::mem_start_at)) {
      if (rec->hc_exit_at != kNoCycle) rec->mem_start_at = now;
    }
  }
}

void LatencyAudit::on_mem_done(Cycle now) {
  if (!mem_current_.has_value()) return;
  const StageToken tok = *mem_current_;
  mem_current_.reset();
  if (!tok.is_final) return;
  PortDirState& pd = state(tok.port, mem_current_write_);
  if (FlightRecord* rec = fill_target(pd, &FlightRecord::mem_done_at)) {
    if (rec->mem_start_at != kNoCycle) rec->mem_done_at = now;
  }
}

void LatencyAudit::on_port_disturbed(PortIndex port, Cycle now) {
  for (const bool dir : {false, true}) {
    for (OpenTxn& txn : bounds(port, dir).open) txn.fault_overlap = true;
    if (!provenance_) continue;
    PortDirState& pd = state(port, dir);
    flush_stall(pd, now);
    pd.stall_active = false;
  }
}

Cycle LatencyAudit::bound_for(PortIndex port, bool is_write,
                              BeatCount beats) const {
  if (bound_override_ != 0) return bound_override_;
  if (!bound_model_.has_value()) return 0;
  const std::uint64_t key = (static_cast<std::uint64_t>(port) << 33) |
                            (static_cast<std::uint64_t>(is_write) << 32) |
                            beats;
  const auto it = bound_cache_.find(key);
  if (it != bound_cache_.end()) return it->second;
  const Cycle b =
      is_write ? wcrt_write(*bound_model_, bound_platform_, port, beats)
               : wcrt_read(*bound_model_, bound_platform_, port, beats);
  bound_cache_.emplace(key, b);
  return b;
}

void LatencyAudit::on_complete(PortIndex port, bool is_write,
                               const AddrReq& req, bool failed, Cycle now) {
  const Verdict v = check_bound(port, is_write, req, failed, now);
  if (provenance_) record_provenance(port, is_write, req, failed, v, now);
}

LatencyAudit::Verdict LatencyAudit::check_bound(PortIndex port, bool is_write,
                                                const AddrReq& req,
                                                bool failed, Cycle now) {
  BoundState& bs = bounds(port, is_write);
  Verdict v;
  v.beats = req.beats;
  // Untracked completion (SmartConnect system or a pre-enable in-flight):
  // no accept cycle, so no bound.
  Cycle accepted_at = kNoCycle;
  const auto it = find_open(bs.open, req);
  if (it != bs.open.end()) {
    v.beats = it->beats;
    v.fault_overlap = it->fault_overlap;
    accepted_at = it->accepted_at;
    bs.open.erase(it);
  } else {
    ++untracked_;
  }
  // Non-stamping sources (raw link pushes in unit tests) have no issue
  // cycle; fall back to the accept cycle, then the completion itself.
  v.t0 = req.issued_at;
  if (v.t0 == kNoCycle) v.t0 = accepted_at;
  if (v.t0 == kNoCycle) v.t0 = now;

  // Busy-period normalization: subtract self-queuing behind the port's own
  // earlier transactions (the bound models a request arriving to an idle
  // own port; see header).
  Cycle busy_start = v.t0;
  const Cycle prev = prev_completion_[port];
  if (prev != kNoCycle && prev > busy_start) busy_start = prev;
  v.audited_latency = now >= busy_start ? now - busy_start : 0;
  prev_completion_[port] = now;

  // Excluded: errors, fault-affected, untracked provenance.
  const bool eligible =
      !failed && !v.fault_overlap && accepted_at != kNoCycle;
  if (eligible) v.bound = bound_for(port, is_write, v.beats);
  if (v.bound != 0) {
    ++bound_checked_;
    const double ratio = static_cast<double>(v.audited_latency) /
                         static_cast<double>(v.bound);
    if (ratio > max_ratio_) max_ratio_ = ratio;
    if (v.audited_latency > v.bound) {
      v.violation = true;
      ++bound_violations_;
      ++bs.violations;
      if (trace_ != nullptr) {
        trace_->record(now, port_source(port), "bound_violation");
      }
    }
    bs.max_audited = std::max(bs.max_audited, v.audited_latency);
    bs.max_bound = std::max(bs.max_bound, v.bound);
  } else if (!eligible) {
    ++excluded_;
  }
  ++txns_;
  return v;
}

void LatencyAudit::record_provenance(PortIndex port, bool is_write,
                                     const AddrReq& req, bool failed,
                                     const Verdict& v, Cycle now) {
  PortDirState& pd = state(port, is_write);
  const auto it = find_open(pd.open, req);
  FlightRecord rec;
  if (it != pd.open.end()) {
    // The classifier owner is open.back(); if that record is completing
    // (synthesized fault error while the split was mid-flight), close the
    // classifier first so its charge lands before retirement.
    if (pd.stall_active && &*it == &pd.open.back()) {
      flush_stall(pd, now);
      pd.stall_active = false;
    }
    rec = *it;
    pd.open.erase(it);
  } else {
    // Untracked: end-to-end latency and the flight record are still
    // useful; hops stay null and no cause is attributed.
    rec.port = port;
    rec.is_write = is_write;
    rec.id = req.id;
    rec.beats = req.beats;
    rec.issued_at = req.issued_at;
  }
  rec.error = failed;
  rec.fault_overlap = v.fault_overlap;
  rec.completed_at = now;
  const Cycle t0 = v.t0;
  rec.latency = now >= t0 ? now - t0 : 0;

  // Remaining exact spans (the classifier covered accept -> final issue).
  // Each hop-to-hop span splits into a fixed pipeline portion and the
  // variable cause; missing hops contribute zero and leave a residual.
  auto charge = [&rec](std::size_t c, Cycle val) { rec.cause[c] += val; };
  const auto kPipe = static_cast<std::size_t>(LatencyCause::kPipeline);
  if (rec.accepted_at != kNoCycle && rec.accepted_at > t0) {
    charge(static_cast<std::size_t>(LatencyCause::kEfifoQueue),
           rec.accepted_at - t0);
  }
  Cycle cur = rec.final_issued_at;
  auto span_to = [&](Cycle hop, std::size_t cause, Cycle pipe_cap) {
    if (cur == kNoCycle || hop == kNoCycle || hop < cur) return;
    const Cycle span = hop - cur;
    const Cycle pipe = std::min(span, pipe_cap);
    charge(kPipe, pipe);
    charge(cause, span - pipe);
    cur = hop;
  };
  span_to(rec.granted_at, static_cast<std::size_t>(LatencyCause::kArbitration),
          1);
  span_to(rec.hc_exit_at,
          static_cast<std::size_t>(LatencyCause::kBackpressure), 1);
  span_to(rec.mem_start_at, static_cast<std::size_t>(LatencyCause::kMemQueue),
          2);
  span_to(rec.mem_done_at, static_cast<std::size_t>(LatencyCause::kMemService),
          0);
  span_to(now, static_cast<std::size_t>(LatencyCause::kReturnPath), 0);
  // Residual cycles (fault-truncated hop chains) are recovery/quarantine
  // time. Clean transactions have zero residual — tested.
  Cycle accounted = 0;
  for (const Cycle c : rec.cause) accounted += c;
  if (accounted < rec.latency) {
    charge(static_cast<std::size_t>(LatencyCause::kRecoveryStall),
           rec.latency - accounted);
  }

  rec.audited_latency = v.audited_latency;
  rec.bound = v.bound;
  rec.violation = v.violation;

  pd.hist.record(rec.latency);
  if (rec.latency > pd.max_latency) pd.max_latency = rec.latency;
  for (std::size_t c = 0; c < kLatencyCauseCount; ++c) {
    pd.cause_total[c] += rec.cause[c];
  }

  if (trace_ != nullptr && trace_->enabled()) {
    const std::uint64_t flow = ++flow_seq_;
    const char* name = is_write ? "wtxn" : "rtxn";
    trace_->record_flow_start(t0, port_source(port), name, flow);
    trace_->record_flow_end(now, mem_source_, name, flow);
  }

  flight_.append(rec);
}

const LogHistogram& LatencyAudit::histogram(PortIndex port,
                                            bool is_write) const {
  return state(port, is_write).hist;
}

Cycle LatencyAudit::max_latency(PortIndex port, bool is_write) const {
  return state(port, is_write).max_latency;
}

Cycle LatencyAudit::max_audited(PortIndex port, bool is_write) const {
  return bounds(port, is_write).max_audited;
}


void LatencyAudit::write_rollup(std::ostream& os) const {
  os << "latency audit roll-up (cycles; aud_max = busy-period-normalized "
        "worst case vs bound)\n";
  os << std::left << std::setw(6) << "port" << std::setw(5) << "dir"
     << std::right << std::setw(9) << "count" << std::setw(8) << "p50"
     << std::setw(8) << "p99" << std::setw(9) << "p99.9" << std::setw(9)
     << "max" << std::setw(9) << "aud_max" << std::setw(9) << "bound"
     << std::setw(9) << "slack" << std::setw(6) << "viol" << "\n";
  for (PortIndex port = 0; port < num_ports_; ++port) {
    for (const bool dir : {false, true}) {
      const PortDirState& pd = state(port, dir);
      if (pd.hist.count() == 0) continue;
      const BoundState& bs = bounds(port, dir);
      // The bound varies per beat count; report the largest checked one.
      const Cycle bound = bs.max_bound;
      os << std::left << std::setw(6) << static_cast<unsigned>(port)
         << std::setw(5) << (dir ? "w" : "r") << std::right << std::setw(9)
         << pd.hist.count() << std::setw(8) << pd.hist.percentile(50.0)
         << std::setw(8) << pd.hist.percentile(99.0) << std::setw(9)
         << pd.hist.percentile(99.9) << std::setw(9) << pd.max_latency
         << std::setw(9) << bs.max_audited;
      if (bound != 0) {
        os << std::setw(9) << bound << std::setw(9)
           << (bound >= bs.max_audited
                   ? static_cast<std::int64_t>(bound - bs.max_audited)
                   : -static_cast<std::int64_t>(bs.max_audited - bound));
      } else {
        os << std::setw(9) << "-" << std::setw(9) << "-";
      }
      os << std::setw(6) << bs.violations << "\n";
      // Cause breakdown: where this port+dir's cycles went.
      std::uint64_t total = 0;
      for (const std::uint64_t c : pd.cause_total) total += c;
      if (total != 0) {
        os << "      causes:";
        for (std::size_t c = 0; c < kLatencyCauseCount; ++c) {
          if (pd.cause_total[c] == 0) continue;
          os << ' ' << latency_cause_name(static_cast<LatencyCause>(c)) << '='
             << std::fixed << std::setprecision(1)
             << 100.0 * static_cast<double>(pd.cause_total[c]) /
                    static_cast<double>(total)
             << '%';
          os.unsetf(std::ios::fixed);
        }
        os << "\n";
      }
    }
  }
  os << "txns=" << txns_ << " checked=" << bound_checked_
     << " violations=" << bound_violations_ << " excluded=" << excluded_
     << " untracked=" << untracked_ << " flight_dropped=" << flight_.dropped()
     << "\n";
}

}  // namespace axihc
