#include "hyperconnect/hyperconnect.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace axihc {

namespace {
HcRuntime make_runtime(const HyperConnectConfig& cfg) {
  HcRuntime rt;
  rt.global_enable = true;
  rt.nominal_burst = cfg.nominal_burst;
  rt.max_outstanding = cfg.max_outstanding;
  rt.reservation_period = cfg.reservation_period;
  rt.budgets = cfg.initial_budgets;
  rt.budgets.resize(cfg.num_ports, 0);
  rt.coupled.assign(cfg.num_ports, true);
  rt.prot_timeout = cfg.prot_timeout;
  rt.fault.assign(cfg.num_ports, PortFault{});
  rt.out_of_order = cfg.out_of_order;
  return rt;
}
}  // namespace

HyperConnect::HyperConnect(std::string name, HyperConnectConfig cfg)
    : Interconnect(std::move(name), cfg.num_ports, cfg.port_link_cfg,
                   cfg.master_link_cfg),
      cfg_(cfg),
      runtime_(make_runtime(cfg)),
      xbar_ar_(Component::name() + ".xbar_ar", cfg.xbar_stage_depth),
      xbar_aw_(Component::name() + ".xbar_aw", cfg.xbar_stage_depth),
      exbar_(cfg.num_ports, cfg.route_capacity,
             /*order_based_routing=*/!cfg.out_of_order),
      budget_left_(runtime_.budgets),
      regfile_(runtime_,
               [this](PortIndex i) {
                 return ts_[i]->subtransactions_issued();
               },
               [this](PortIndex i) {
                 // Sub-transactions still pending downstream: the PU's live
                 // records. Zero means the port is fully drained — safe to
                 // reset/recouple (the recovery FSM's Draining gate).
                 return static_cast<std::uint64_t>(pu_[i]->reads().size() +
                                                   pu_[i]->writes().size());
               }),
      control_link_(Component::name() + ".ctrl", cfg.control_link_cfg) {
  AXIHC_CHECK(cfg_.max_outstanding >= 1);
  owed_r_.resize(cfg_.num_ports);
  owed_b_.resize(cfg_.num_ports);
  reported_cause_.assign(std::size_t{cfg_.num_ports} * 2,
                         LatencyCause::kPipeline);
  efifos_.reserve(cfg_.num_ports);
  for (PortIndex i = 0; i < cfg_.num_ports; ++i) {
    efifos_.emplace_back(port_link(i));
    ts_.push_back(std::make_unique<TransactionSupervisor>(i, runtime_));
    pu_.push_back(std::make_unique<ProtectionUnit>(i, runtime_));
    ts_ar_.push_back(std::make_unique<TimingChannel<AddrReq>>(
        Component::name() + ".ts_ar" + std::to_string(i),
        cfg_.ts_stage_depth));
    ts_aw_.push_back(std::make_unique<TimingChannel<AddrReq>>(
        Component::name() + ".ts_aw" + std::to_string(i),
        cfg_.ts_stage_depth));
    ts_ar_ptrs_.push_back(ts_ar_.back().get());
    ts_aw_ptrs_.push_back(ts_aw_.back().get());
  }
}

void HyperConnect::register_with(Simulator& sim) {
  Interconnect::register_with(sim);
  for (auto& ch : ts_ar_) sim.add(*ch);
  for (auto& ch : ts_aw_) sim.add(*ch);
  sim.add(xbar_ar_);
  sim.add(xbar_aw_);
  control_link_.register_with(sim);
}

void HyperConnect::reset() {
  runtime_ = make_runtime(cfg_);
  for (auto& ts : ts_) ts->reset();
  for (auto& pu : pu_) pu->reset();
  exbar_.reset();
  budget_left_ = runtime_.budgets;
  recharge_next_ = 0;
  recharge_period_ = 0;
  recharges_ = 0;
  faults_latched_ = 0;
  next_tick_ = 0;
  age_due_ = 0;
  age_timeout_ = 0;
  for (PortIndex i = 0; i < num_ports(); ++i) {
    efifos_[i].set_coupled(true);
    efifos_[i].set_faulted(false);
    owed_r_[i].clear();
    owed_b_[i].clear();
    mutable_counters(i) = PortCounters{};
  }
  owed_pending_ = 0;
  staged_ = {};
  reported_cause_.assign(reported_cause_.size(), LatencyCause::kPipeline);
}

std::string HyperConnect::port_source(PortIndex i) const {
  return name() + ".port" + std::to_string(i);
}

void HyperConnect::append_digest(StateDigest& d) const {
  Interconnect::append_digest(d);
  for (std::uint32_t b : budget_left_) d.mix(b);
  d.mix(recharges_);
  d.mix(faults_latched_);
  for (const auto& ts : ts_) d.mix(ts->subtransactions_issued());
  for (PortIndex i = 0; i < num_ports(); ++i) {
    d.mix(static_cast<std::uint64_t>(efifos_[i].coupled()) |
          (static_cast<std::uint64_t>(efifos_[i].faulted()) << 1));
    d.mix(static_cast<std::uint64_t>(owed_r_[i].size()));
    for (const RBeat& beat : owed_r_[i]) d.mix(beat.id);
    d.mix(static_cast<std::uint64_t>(owed_b_[i].size()));
    for (const BResp& resp : owed_b_[i]) d.mix(resp.id);
  }
}

void HyperConnect::register_metrics(MetricsRegistry& reg) {
  // runtime_ and budget_left_ are wholesale reassigned by reset(), so their
  // readers capture the port index and go through `this`, never a pointer
  // into the vectors.
  reg.add_counter(name() + ".recharges", &recharges_);
  reg.add_counter(name() + ".faults_latched", &faults_latched_);
  for (PortIndex i = 0; i < num_ports(); ++i) {
    const std::string p = port_source(i);
    reg.add_gauge(p + ".budget_left", [this, i] {
      return static_cast<double>(budget_left_[i]);
    });
    reg.add_gauge(p + ".efifo_level", [this, i] {
      return static_cast<double>(efifos_[i].level());
    });
    reg.add_gauge(p + ".reads_outstanding", [this, i] {
      return static_cast<double>(ts_[i]->reads_outstanding());
    });
    reg.add_gauge(p + ".writes_outstanding", [this, i] {
      return static_cast<double>(ts_[i]->writes_outstanding());
    });
    reg.add_gauge(p + ".coupled", [this, i] {
      return runtime_.coupled[i] ? 1.0 : 0.0;
    });
    reg.add_gauge(p + ".faulted", [this, i] {
      return runtime_.fault[i].faulted ? 1.0 : 0.0;
    });
    reg.add_counter(p + ".fault_count", [this, i] {
      return static_cast<double>(runtime_.fault[i].count);
    });
    const PortCounters& c = counters(i);  // stable element of counters_
    reg.add_counter(p + ".ar_granted", &c.ar_granted);
    reg.add_counter(p + ".aw_granted", &c.aw_granted);
    reg.add_counter(p + ".r_beats", &c.r_beats);
    reg.add_counter(p + ".w_beats", &c.w_beats);
    reg.add_counter(p + ".b_resps", &c.b_resps);
  }
}

std::uint32_t HyperConnect::budget_left(PortIndex i) const {
  AXIHC_CHECK(i < budget_left_.size());
  return budget_left_[i];
}

const TransactionSupervisor& HyperConnect::supervisor(PortIndex i) const {
  AXIHC_CHECK(i < ts_.size());
  return *ts_[i];
}

const ProtectionUnit& HyperConnect::protection(PortIndex i) const {
  AXIHC_CHECK(i < pu_.size());
  return *pu_[i];
}

const PortFault& HyperConnect::port_fault(PortIndex i) const {
  AXIHC_CHECK(i < runtime_.fault.size());
  return runtime_.fault[i];
}

void HyperConnect::tick_control_interface() {
  // Register write: AW + single W beat -> B.
  if (control_link_.aw.can_pop() && control_link_.w.can_pop() &&
      control_link_.b.can_push()) {
    const AddrReq aw = control_link_.aw.pop();
    AXIHC_CHECK_MSG(aw.beats == 1,
                    name() << ": control interface writes must be single-beat");
    const WBeat wb = control_link_.w.pop();
    AXIHC_CHECK(wb.last);
    regfile_.write(aw.addr, wb.data);
    control_link_.b.push({aw.id, Resp::kOkay});
  }
  // Register read: AR -> single R beat.
  if (control_link_.ar.can_pop() && control_link_.r.can_push()) {
    const AddrReq ar = control_link_.ar.pop();
    AXIHC_CHECK_MSG(ar.beats == 1,
                    name() << ": control interface reads must be single-beat");
    control_link_.r.push({ar.id, regfile_.read(ar.addr), true, Resp::kOkay});
  }
}

void HyperConnect::tick_central_unit(Cycle now) {
  // Keep the eFIFO decoupling state in sync with the PORT_CTRL registers.
  // While a port is decoupled its signals are grounded: anything queued in
  // or pushed toward its eFIFO is dropped continuously, and any half-split
  // burst is aborted — as under dynamic partial reconfiguration, where the
  // HA behind the port is being replaced and is reset before recoupling.
  for (PortIndex i = 0; i < num_ports(); ++i) {
    const bool want = runtime_.coupled[i];
    if (want != efifos_[i].coupled()) {
      if (tracing()) {
        trace_->record(now, port_source(i), want ? "recouple" : "decouple");
      }
      if (!want && auditing()) audit_->on_port_disturbed(i, now);
    }
    if (!want) {
      AxiLink& link = port_link(i);
      link.ar.clear_contents();
      link.aw.clear_contents();
      link.w.clear_contents();
      link.r.clear_contents();
      link.b.clear_contents();
      ts_[i]->abort_pending_issue();
      // Undelivered synthesized completions die with the decouple (the HA
      // is reset before the port recouples).
      owed_pending_ -= owed_r_[i].size() + owed_b_[i].size();
      owed_r_[i].clear();
      owed_b_[i].clear();
    }
    efifos_[i].set_coupled(want);

    // Sync the eFIFO fault latch with the FAULT_STATUS register. A
    // hypervisor write cleared the runtime latch -> re-arm the protection
    // unit (stall counters reset, record ages restamped so in-fault time
    // does not count against the timeout).
    const bool faulted = runtime_.fault[i].faulted;
    if (efifos_[i].faulted() && !faulted) {
      pu_[i]->clear_stalls();
      pu_[i]->restamp(now);
      lower_age_due(now);
    }
    efifos_[i].set_faulted(faulted);
  }
  // Synchronous budget recharge for all TS modules every period T. The
  // boundary test is `now % T == 0`, but the divide runs only when the
  // cached next-boundary deadline is due (or stale after a runtime period
  // write): between boundaries this is a single compare.
  const Cycle period = runtime_.reservation_period;
  if (period != 0) {
    if (period != recharge_period_) {
      recharge_period_ = period;
      recharge_next_ = 0;  // stale: re-derive from `now` below
    }
    if (now >= recharge_next_) {
      if (now % period == 0) {
        if (tracing()) {
          trace_->record(now, name() + ".central", "window_recharge");
          // Budget consumed in the window that just closed, per port — the
          // reservation-window accounting behind the Fig. 5 bandwidth
          // plots.
          for (PortIndex i = 0; i < num_ports(); ++i) {
            trace_->record_counter(
                now, port_source(i), "budget_used",
                static_cast<double>(runtime_.budgets[i] - budget_left_[i]));
          }
        }
        budget_left_ = runtime_.budgets;
        ++recharges_;
      }
      recharge_next_ = (now / period + 1) * period;
    }
  }
}

void HyperConnect::tick_protection(Cycle now) {
  if (runtime_.fault.empty()) return;
  // Culprit-first: a handshake stall or malformed burst identifies the
  // misbehaving port precisely (stall counters only accumulate for the
  // head-of-line blocker of a shared path). At most one fault per cycle.
  // Only a suspect can fire: with no stall counting and no malformed latch,
  // evaluate_stalls() is kNone.
  bool any_suspect = false;
  for (PortIndex i = 0; i < num_ports(); ++i) {
    if (runtime_.fault[i].faulted || !pu_[i]->suspected()) continue;
    const FaultCause cause = pu_[i]->evaluate_stalls();
    if (cause != FaultCause::kNone) {
      trigger_fault(i, cause, now);
      return;
    }
    any_suspect = true;
  }
  // Age backstop, suppressed while any port is a stall suspect: a port
  // queued behind a wedge has old sub-transactions through no fault of its
  // own and must not be blamed (the culprit faults first, and
  // trigger_fault's restamp amnesty resets everyone else's ages).
  const Cycle timeout = runtime_.prot_timeout;
  if (timeout == 0 || any_suspect) return;
  // The ports are scanned only once the deadline bound is due; a rewritten
  // timeout invalidates the bound.
  if (timeout != age_timeout_) {
    age_timeout_ = timeout;
    age_due_ = 0;
  }
  if (now < age_due_) return;
  Cycle due = kNoCycle;
  for (PortIndex i = 0; i < num_ports(); ++i) {
    if (runtime_.fault[i].faulted) continue;
    const auto oldest = pu_[i]->oldest_issue();
    if (!oldest.has_value()) continue;
    if (now - *oldest >= 2 * timeout) {
      trigger_fault(i, FaultCause::kTimeout, now);
      return;
    }
    due = std::min(due, *oldest + 2 * timeout);
  }
  age_due_ = due;
}

void HyperConnect::lower_age_due(Cycle stamp) {
  age_due_ = std::min(age_due_, stamp + 2 * runtime_.prot_timeout);
}

void HyperConnect::trigger_fault(PortIndex i, FaultCause cause, Cycle now) {
  PortFault& f = runtime_.fault[i];
  f.faulted = true;
  f.cause = cause;
  ++f.count;
  f.last_cycle = now;
  ++faults_latched_;
  efifos_[i].set_faulted(true);
  if (tracing()) {
    trace_->record(now, port_source(i),
                   "fault cause=" + std::to_string(static_cast<int>(cause)));
  }
  AXIHC_LOG_WARN() << name() << " @" << now << ": port " << i
                   << " faulted (cause " << static_cast<int>(cause)
                   << ") — isolating and synthesizing SLVERR completions";

  // Ground the request side with a one-time flush. R/B contents are KEPT:
  // beats already queued toward the HA belong to sub-transactions that may
  // have retired their records — dropping them would erase completions the
  // HA is still owed (it would then see the next transaction's completion
  // while waiting on the current one: a protocol violation on an in-order
  // port, a wedge on any port).
  AxiLink& link = port_link(i);
  link.ar.clear_contents();
  link.aw.clear_contents();
  link.w.clear_contents();

  // Synthesize a terminal SLVERR completion for every HA transaction that
  // still owes one: in-flight final sub-bursts, plus the transaction being
  // split (its final sub-request never went downstream). The PU/TS records
  // are kept — in-flight sub-bursts still complete downstream (read data is
  // dropped at the faulted port, granted writes are zero-filled) and retire
  // their records, so the merge bookkeeping stays consistent. Completions
  // go through the owed queues (drained in tick() as R/B capacity frees,
  // behind whatever legitimate beats were kept above), so none is ever
  // dropped on a full queue.
  for (const auto& rec : pu_[i]->reads()) {
    if (rec.is_final) {
      owed_r_[i].push_back({rec.id, 0, true, Resp::kSlvErr});
      ++owed_pending_;
    }
  }
  if (const auto id = ts_[i]->active_read_id()) {
    owed_r_[i].push_back({*id, 0, true, Resp::kSlvErr});
    ++owed_pending_;
  }
  for (const auto& rec : pu_[i]->writes()) {
    if (rec.is_final) {
      owed_b_[i].push_back({rec.id, Resp::kSlvErr});
      ++owed_pending_;
    }
  }
  if (const auto id = ts_[i]->active_write_id()) {
    owed_b_[i].push_back({*id, Resp::kSlvErr});
    ++owed_pending_;
  }
  ts_[i]->abort_pending_issue();
  pu_[i]->clear_stalls();
  if (auditing()) audit_->on_port_disturbed(i, now);

  // Amnesty for the bystanders: time their sub-transactions spent wedged
  // behind the culprit must not count against the age backstop. Restamped
  // records only get younger, so age_due_ stays a lower bound.
  for (PortIndex j = 0; j < num_ports(); ++j) {
    if (j != i) pu_[j]->restamp(now);
  }
}

bool HyperConnect::stall_heads(
    std::array<PortIndex, kStallPaths>& heads) const {
  heads.fill(kNoPort);
  // Returning R/B whose port is active but has a full R/B queue (its HA
  // holds READY low): the path stays blocked and only counts the stall.
  if (master_link().r.can_pop()) {
    const PortIndex port = r_head_port();
    if (port == kNoPort || !efifos_[port].active() ||
        efifos_[port].can_push_r()) {
      return false;
    }
    heads[static_cast<std::size_t>(StallPath::kR)] = port;
  }
  if (master_link().b.can_pop()) {
    const PortIndex port = b_head_port();
    if (port == kNoPort || !efifos_[port].active() ||
        efifos_[port].can_push_b()) {
      return false;
    }
    heads[static_cast<std::size_t>(StallPath::kB)] = port;
  }
  // A granted sub-write pulling into a master W queue with room (a full
  // queue blocks the pull first): it moves a beat, or a zero beat for an
  // inactive port, unless the active port has no W data for it.
  const auto& route = exbar_.write_route();
  if (!route.empty() && master_link().w.can_push()) {
    const PortIndex port = route.front().port;
    if (!efifos_[port].active() || efifos_[port].w_available()) return false;
    heads[static_cast<std::size_t>(StallPath::kW)] = port;
  }
  return true;
}

void HyperConnect::tick_r_path() {
  if (!master_link().r.can_pop()) return;

  const PortIndex port = r_head_port();
  AXIHC_CHECK_MSG(port != kNoPort,
                  name() << ": R beat with an unroutable extended id or no "
                            "routing info");
  Efifo& fifo = efifos_[port];

  if (fifo.active() && !fifo.can_push_r()) {
    // Upstream backpressure: this port is the head-of-line blocker of the
    // shared read-return stream (its HA holds RREADY low with a full R
    // queue) — exactly the stall the protection unit polices.
    pu_[port]->observe_stall(StallPath::kR, true);
    return;
  }
  pu_[port]->observe_stall(StallPath::kR, false);

  RBeat raw = master_link().r.pop();
  const bool subburst_end = raw.last;  // controller-level LAST
  if (runtime_.out_of_order) {
    raw.id &= (TxnId{1} << kIdPortShift) - 1;  // restore the HA's ID
  }
  const RBeat merged = ts_[port]->process_r_beat(raw);
  if (fifo.active()) {
    fifo.push_r(merged);
    ++mutable_counters(port).r_beats;
  }
  // A decoupled/faulted port's signals are grounded: the beat is dropped,
  // but the routing/merge bookkeeping above stays consistent.
  if (subburst_end) pu_[port]->on_read_sub_complete();
  if (!runtime_.out_of_order && subburst_end) exbar_.read_route().pop();
}

void HyperConnect::tick_b_path() {
  if (!master_link().b.can_pop()) return;

  const PortIndex port = b_head_port();
  AXIHC_CHECK_MSG(port != kNoPort,
                  name() << ": B with an unroutable extended id or no "
                            "routing info");
  Efifo& fifo = efifos_[port];

  if (fifo.active() && !fifo.can_push_b()) {
    pu_[port]->observe_stall(StallPath::kB, true);
    return;
  }
  pu_[port]->observe_stall(StallPath::kB, false);

  BResp resp = master_link().b.pop();
  if (runtime_.out_of_order) {
    resp.id &= (TxnId{1} << kIdPortShift) - 1;
  }
  const bool forward = ts_[port]->process_b(resp);
  pu_[port]->on_write_sub_complete();
  if (forward && fifo.active()) {
    fifo.push_b(resp);
    ++mutable_counters(port).b_resps;
  }
  if (!runtime_.out_of_order) exbar_.b_route().pop();
}

void HyperConnect::tick_w_path() {
  auto& route = exbar_.write_route();
  if (route.empty()) return;
  auto& entry = route.front();
  Efifo& fifo = efifos_[entry.port];
  if (!master_link().w.can_push()) return;
  AXIHC_CHECK(entry.beats > 0);
  const bool sub_end = entry.beats == 1;

  WBeat beat;
  if (fifo.active()) {
    if (!fifo.w_available()) {
      // A granted sub-write is starving for W data: this port wedges the
      // shared write path head-of-line (hung W stream / truncated burst).
      pu_[entry.port]->observe_stall(StallPath::kW, true);
      return;
    }
    pu_[entry.port]->observe_stall(StallPath::kW, false);
    beat = fifo.pop_w();
    const bool orig_last = beat.last;
    // WLAST legality at the re-chunk boundary. A mismatch (early, late or
    // missing WLAST — e.g. a corrupted AWLEN) is a protocol fault handled
    // gracefully by the protection unit; the stream stays legal downstream
    // because WLAST is rewritten to the sub-burst boundary below.
    if (orig_last != (sub_end && entry.expects_orig_last)) {
      pu_[entry.port]->flag_malformed();
    }
    ++mutable_counters(entry.port).w_beats;
  } else {
    // Decoupled/faulted port with an already-granted sub-AW: its W input is
    // grounded. Feed zero beats so the granted transaction completes and
    // the shared W path cannot be wedged by the isolated HA.
    beat = WBeat{0, 0xff, false};
  }
  // Re-chunk WLAST to the sub-burst boundary created by the TS split.
  beat.last = sub_end;
  master_link().w.push(beat);
  --entry.beats;
  if (sub_end) route.pop();
}

void HyperConnect::audit_accept(PortIndex i, bool is_write,
                                const AddrReq& orig, Cycle now) {
  // The auditor starts every split's classifier at kPipeline.
  reported_cause_[i * 2 + (is_write ? 1 : 0)] = LatencyCause::kPipeline;
  audit_->on_accept(i, is_write, orig, now);
}

LatencyCause HyperConnect::classify_stall(
    PortIndex i, std::uint32_t outstanding,
    const TimingChannel<AddrReq>& stage) const {
  if (!runtime_.global_enable) return LatencyCause::kBackpressure;
  if (runtime_.reservation_period != 0 && budget_left_[i] == 0) {
    return LatencyCause::kBudgetWait;
  }
  if (!stage.can_push()) return LatencyCause::kArbitration;
  if (outstanding >= runtime_.max_outstanding) {
    return LatencyCause::kBackpressure;
  }
  return LatencyCause::kPipeline;  // will issue next cycle
}

void HyperConnect::report_stall_cause(PortIndex i, bool is_write,
                                      LatencyCause cause, Cycle now) {
  LatencyCause& last = reported_cause_[i * 2 + (is_write ? 1 : 0)];
  if (cause == last) return;
  last = cause;
  audit_->on_stall_cause(i, is_write, cause, now);
}

Cycle HyperConnect::next_activity(Cycle now) const {
  // Control-interface traffic to serve.
  if (control_link_.ar.can_pop() || control_link_.aw.can_pop() ||
      control_link_.w.can_pop()) {
    return now;
  }
  // Proactive data/response paths: returning R/B, or a granted sub-write
  // pulling a W beat. A path blocked by its head port (full R/B queue, no
  // W data) only grows that port's stall counter: lazy catch-up, with the
  // counter's timeout as the deadline (below).
  std::array<PortIndex, kStallPaths> heads{};
  if (!stall_heads(heads)) return now;
  // EXBAR output registers draining into the master eFIFO.
  if (xbar_ar_.can_pop() || xbar_aw_.can_pop()) return now;

  bool suspect = false;  // an unfaulted port is a stall suspect
  for (PortIndex i = 0; i < num_ports(); ++i) {
    // Central-unit state sync pending (decouple/recouple or fault latch).
    if (efifos_[i].coupled() != runtime_.coupled[i]) return now;
    if (efifos_[i].faulted() != runtime_.fault[i].faulted) return now;
    // A decoupled port grounds its signals continuously: queued traffic is
    // still being flushed and a half-split burst aborted on the next tick.
    const AxiLink& link = port_link(i);
    if (!runtime_.coupled[i]) {
      if (!link.ar.empty() || !link.aw.empty() || !link.w.empty() ||
          !link.r.empty() || !link.b.empty() ||
          ts_[i]->active_read_id().has_value() ||
          ts_[i]->active_write_id().has_value()) {
        return now;
      }
    }
    // Owed synthesized completions wait for R/B capacity (or, decoupled,
    // for the central unit to discard them); a full queue holds them with
    // no per-cycle work.
    if ((!owed_r_[i].empty() && (!runtime_.coupled[i] || link.r.can_push())) ||
        (!owed_b_[i].empty() && (!runtime_.coupled[i] || link.b.can_push()))) {
      return now;
    }
    // TS output stages feeding the EXBAR.
    if (ts_ar_[i]->can_pop() || ts_aw_[i]->can_pop()) return now;
    // Protection unit: a suspect fires when its evaluation says so; its
    // counters stay put unless its port heads a blocked path (below).
    if (!runtime_.fault[i].faulted && pu_[i]->suspected()) {
      if (pu_[i]->evaluate_stalls() != FaultCause::kNone) return now;
      suspect = true;
    }
    // Issue step could make progress (new request, or a split with budget).
    if (ts_[i]->issue_pending(efifos_[i], *ts_ar_[i], *ts_aw_[i],
                              budget_left_[i])) {
      return now;
    }
  }

  // Quiescent except for self-scheduled events. A stall counter a blocked
  // head grows reaches the timeout `timeout - count` ticks from now.
  Cycle next = kNoCycle;
  const Cycle timeout = runtime_.prot_timeout;
  for (std::size_t p = 0; timeout != 0 && p < kStallPaths; ++p) {
    if (heads[p] != kNoPort) {
      const Cycle count = pu_[heads[p]]->stall_cycles(StallPath(p));
      next = std::min(next, now + (timeout - count));
    }
  }
  // The age backstop fires when an unfaulted port's oldest in-flight record
  // reaches twice the timeout (records only age; nothing restamps them
  // while frozen); age_due_ bounds that cycle from below. It is suppressed
  // while a suspect exists.
  if (timeout != 0 && !suspect) {
    const Cycle due = age_timeout_ == timeout ? age_due_ : 0;
    if (due <= now) return now;
    next = std::min(next, due);
  }
  // The central unit's synchronous recharge is observable (recharges_
  // counter, budget refill, trace instants) at every window boundary — and
  // a budget-starved split resumes exactly there.
  if (runtime_.reservation_period != 0) {
    const Cycle p = runtime_.reservation_period;
    if (now % p == 0) return now;
    next = std::min(next, (now / p + 1) * p);
  }
  return next;
}

void HyperConnect::catch_up_stalls(Cycle skipped) {
  // Each tick the kernel skipped would only have grown the stall counters
  // of the blocked path heads (next_activity certified it), and the heads
  // are unchanged in the frozen state.
  std::array<PortIndex, kStallPaths> heads{};
  AXIHC_CHECK_MSG(stall_heads(heads),
                  name() << ": skipped ticks that would have moved data");
  for (std::size_t p = 0; p < kStallPaths; ++p) {
    if (heads[p] != kNoPort) {
      pu_[heads[p]]->add_stall_cycles(StallPath(p), skipped);
    }
  }
}

void HyperConnect::tick(Cycle now) {
  if (now > next_tick_) catch_up_stalls(now - next_tick_);
  next_tick_ = now + 1;
  tick_control_interface();
  tick_central_unit(now);

  // Protection units: evaluate the stall/age observations accumulated by
  // the data paths up to the previous cycle, before this cycle's traffic.
  tick_protection(now);

  // Deliver owed synthesized completions as R/B capacity frees. Runs before
  // the data paths so owed beats always land ahead of any newer traffic.
  // owed_pending_ counts queued completions across all ports, so the
  // fault-free common case skips the per-port deque walk entirely.
  if (owed_pending_ != 0) {
    for (PortIndex i = 0; i < num_ports(); ++i) {
      if (!efifos_[i].coupled()) continue;
      AxiLink& link = port_link(i);
      while (!owed_r_[i].empty() && link.r.can_push()) {
        link.r.push(owed_r_[i].front());
        owed_r_[i].pop_front();
        --owed_pending_;
      }
      while (!owed_b_[i].empty() && link.b.can_push()) {
        link.b.push(owed_b_[i].front());
        owed_b_[i].pop_front();
        --owed_pending_;
      }
    }
  }

  // Proactive data/response paths (no added latency).
  tick_r_path();
  tick_b_path();
  tick_w_path();

  // TS modules: one sub-request per port per direction per cycle. Every
  // issued sub-transaction is registered with the port's protection unit.
  // The bound check hears each split start (the accept, with the popped
  // request); provenance also hears issues, stall causes, grants and exits.
  const bool audit = auditing();
  const bool provenance = audit && audit_->provenance();
  for (PortIndex i = 0; i < num_ports(); ++i) {
    TransactionSupervisor& ts = *ts_[i];
    Efifo& fifo = efifos_[i];
    const auto rsub = ts.tick_read_issue(fifo, *ts_ar_[i], budget_left_[i]);
    if (audit && rsub.started) {
      audit_accept(i, false, ts.split_request(false), now);
    }
    if (rsub) {
      ++staged_[0];
      pu_[i]->on_issue_read(rsub.id, rsub.is_final, now);
      lower_age_due(now);
      if (provenance) audit_->on_sub_issue(i, false, rsub.is_final, now);
    }
    const auto wsub = ts.tick_write_issue(fifo, *ts_aw_[i], budget_left_[i]);
    if (audit && wsub.started) {
      audit_accept(i, true, ts.split_request(true), now);
    }
    if (wsub) {
      ++staged_[1];
      pu_[i]->on_issue_write(wsub.id, wsub.is_final, now);
      lower_age_due(now);
      if (provenance) audit_->on_sub_issue(i, true, wsub.is_final, now);
    }
    // Classify why each still-active split of this port could not issue
    // this cycle (no other port's issue affects it). The auditor hears only
    // changes: it charges the cycles since the previous report to the
    // previous cause, so a split stalled for a whole budget window costs one
    // call at each end, not one per cycle.
    if (!provenance) continue;
    if (ts.active_read_id().has_value()) {
      report_stall_cause(
          i, false, classify_stall(i, ts.reads_outstanding(), *ts_ar_[i]), now);
    }
    if (ts.active_write_id().has_value()) {
      report_stall_cause(
          i, true, classify_stall(i, ts.writes_outstanding(), *ts_aw_[i]), now);
    }
  }

  // EXBAR: fixed-granularity round-robin, one grant per address channel.
  // With no sub-request staged in any TS output the scan cannot grant.
  if (staged_[0] != 0) {
    if (auto p = exbar_.grant_read(ts_ar_ptrs_, xbar_ar_)) {
      --staged_[0];
      ++mutable_counters(*p).ar_granted;
      if (tracing()) {
        trace_->record(now, name() + ".exbar",
                       "ar_grant_p" + std::to_string(*p));
      }
      if (provenance) audit_->on_grant(*p, false, now);
    }
  }
  if (staged_[1] != 0) {
    if (auto p = exbar_.grant_write(ts_aw_ptrs_, xbar_aw_)) {
      --staged_[1];
      ++mutable_counters(*p).aw_granted;
      if (tracing()) {
        trace_->record(now, name() + ".exbar",
                       "aw_grant_p" + std::to_string(*p));
      }
      if (provenance) audit_->on_grant(*p, true, now);
    }
  }

  // Master eFIFO stage toward the FPGA-PS interface.
  if (xbar_ar_.can_pop() && master_link().ar.can_push()) {
    master_link().ar.push(xbar_ar_.pop());
    if (provenance) audit_->on_hc_exit(false, now);
  }
  if (xbar_aw_.can_pop() && master_link().aw.can_push()) {
    master_link().aw.push(xbar_aw_.pop());
    if (provenance) audit_->on_hc_exit(true, now);
  }
}

}  // namespace axihc
