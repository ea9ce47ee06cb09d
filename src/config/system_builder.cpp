#include "config/system_builder.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "config/keys.hpp"
#include "hyperconnect/config.hpp"
#include "obs/chrome_trace.hpp"
#include "stats/table.hpp"

namespace axihc {

// check_config admits only the choices of each string key's row, so the
// last value of every mapping below is the one that is left.
namespace {

DmaMode dma_mode_by_name(const std::string& name) {
  if (name == "read") return DmaMode::kRead;
  if (name == "write") return DmaMode::kWrite;
  if (name == "copy") return DmaMode::kCopy;
  return DmaMode::kReadWrite;
}

TrafficDirection direction_by_name(const std::string& name) {
  if (name == "write") return TrafficDirection::kWrite;
  if (name == "mixed") return TrafficDirection::kMixed;
  return TrafficDirection::kRead;
}

/// The window [base, base + bytes), rejected when it wraps past the top of
/// the address space: decode, SLVERR matching and the prover's overlap test
/// all compute base + bytes. `what` names the keys, e.g. "[mem0] base +
/// bytes".
AddrRange checked_window(Addr base, std::uint64_t bytes,
                         const std::string& what) {
  AXIHC_REQUIRE(bytes <= ~base, what << " wraps past the address space");
  return {base, bytes};
}

}  // namespace

ConfiguredSystem::ConfiguredSystem(const IniFile& ini) {
  build(ini, nullptr);
}

ConfiguredSystem::ConfiguredSystem(const IniFile& ini,
                                   const FaultScenario& scenario) {
  build(ini, &scenario);
}

void ConfiguredSystem::build(const IniFile& ini,
                             const FaultScenario* scenario_override) {
  check_config(ini);
  const IniSection* system = ini.section("system");
  AXIHC_REQUIRE(system != nullptr, "config needs a [system] section");

  platform_ = system->get_string("platform") == "zynq7020"
                  ? zynq7020_platform()
                  : zcu102_platform();
  configured_cycles_ = system->get_u64("cycles");

  SocConfig cfg;
  if (system->get_string("interconnect") == "smartconnect") {
    cfg.kind = InterconnectKind::kSmartConnect;
  }
  cfg.num_ports = system->get_u32("ports");
  cfg.mem = platform_.mem;

  // Bounded address decode: accesses beyond mem_bytes get DECERR. [memN]
  // sections add decode-map entries (base/bytes) for scattered mapped
  // regions. Entries must fit the address space and be disjoint: an aliased
  // address would decode by entry order.
  std::vector<std::pair<std::string, AddrRange>> decode;
  const std::uint64_t mem_bytes = system->get_u64("mem_bytes");
  if (mem_bytes != 0) {
    decode.emplace_back("[system] mem_bytes", AddrRange{0, mem_bytes});
  }
  for (const IniSection* ms : ini.sections_with_prefix("mem")) {
    const std::string owner = "[" + ms->name() + "]";
    const AddrRange entry = checked_window(
        ms->get_u64("base"), ms->get_u64("bytes"), owner + " base + bytes");
    for (const auto& [other_owner, other] : decode) {
      AXIHC_REQUIRE(entry.bytes == 0 || other.bytes == 0 ||
                        !entry.overlaps(other.base, other.bytes),
                    other_owner << " and " << owner
                                << " decode entries overlap");
    }
    decode.emplace_back(owner, entry);
  }
  for (const auto& entry : decode) {
    cfg.mem.mapped_ranges.push_back(entry.second);
  }

  // An absent [hyperconnect] reads as an empty one: every key its default.
  const IniSection no_hc("hyperconnect");
  const IniSection* hc_section = ini.section("hyperconnect");
  const IniSection& hc = hc_section != nullptr ? *hc_section : no_hc;
  cfg.hc.nominal_burst = hc.get_u32("nominal_burst");
  cfg.hc.max_outstanding = hc.get_u32("max_outstanding");
  cfg.hc.reservation_period = hc.get_u64("reservation_period");
  cfg.hc.initial_budgets = hc.get_u32_list("budgets");
  // Fewer entries leave the remaining ports at 0 (the prover's reservation
  // check disproves those); extra entries would be dropped unseen.
  AXIHC_REQUIRE(cfg.hc.initial_budgets.size() <= cfg.num_ports,
                "[hyperconnect] budgets has "
                    << cfg.hc.initial_budgets.size()
                    << " entries, more than [system] ports = "
                    << cfg.num_ports);
  cfg.hc.prot_timeout = hc.get_u64("prot_timeout");
  cfg.hc.out_of_order = hc.get_bool("out_of_order");
  // eFIFO structural knobs (the fifo-depth ablation sweep): data_depth sets
  // the R/W queue depths, addr_depth the AR/AW queue depths, on the port AND
  // master eFIFOs.
  const std::uint64_t data_depth = hc.get_u64("data_depth");
  const std::uint64_t addr_depth = hc.get_u64("addr_depth");
  for (AxiLinkConfig* link : {&cfg.hc.port_link_cfg, &cfg.hc.master_link_cfg}) {
    link->r_depth = link->w_depth = data_depth;
    link->ar_depth = link->aw_depth = addr_depth;
  }
  if (cfg.hc.out_of_order) {
    cfg.mem.scheduling = MemScheduling::kFrFcfs;
    cfg.mem.id_order_mask = 0xFFFF0000;
  }

  // [faultN] sections: mem_slverr windows configure the memory controller;
  // everything else becomes an injector fault spec. A scenario override
  // (campaign runs) replaces the file's fault description wholesale.
  if (scenario_override != nullptr) {
    AXIHC_REQUIRE(ini.sections_with_prefix("fault").empty(),
                  "a scenario override replaces all [faultN] sections — "
                  "remove them from the base config");
    for (const FaultSpec& spec : scenario_override->faults) {
      AXIHC_CHECK_MSG(spec.port < cfg.num_ports,
                      "scenario fault port " << spec.port << " out of range");
    }
    scenario_ = *scenario_override;
  } else {
    scenario_.seed = system->get_u64("fault_seed");
    for (const IniSection* fs : ini.sections_with_prefix("fault")) {
      const std::string kind = fs->get_string("kind");
      if (kind == "mem_slverr") {
        cfg.mem.slverr_ranges.push_back(
            checked_window(fs->get_u64("base"), fs->get_u64("bytes"),
                           "[" + fs->name() + "] base + bytes"));
        continue;
      }
      const auto parsed = fault_kind_from_string(kind);
      AXIHC_REQUIRE(parsed.has_value(),
                    "[" << fs->name() << "] unknown fault kind '" << kind
                        << "'");
      FaultSpec spec;
      spec.kind = *parsed;
      spec.port = fs->get_u32("port");
      AXIHC_REQUIRE(spec.port < cfg.num_ports,
                    "[" << fs->name() << "] port " << spec.port
                        << " out of range");
      spec.start = fs->get_u64("start");
      spec.duration = fs->get_u64("duration");
      spec.param = fs->get_u64("param");
      spec.probability = fs->get_double("probability");
      scenario_.faults.push_back(spec);
    }
  }

  soc_ = std::make_unique<SocSystem>(cfg);

  const auto ha_sections = ini.sections_with_prefix("ha");
  AXIHC_REQUIRE(!ha_sections.empty(),
                "config needs at least one [haN] section");
  AXIHC_REQUIRE(ha_sections.size() <= cfg.num_ports,
                "more [haN] sections (" << ha_sections.size()
                                        << ") than interconnect ports ("
                                        << cfg.num_ports << ")");
  for (PortIndex port = 0; port < ha_sections.size(); ++port) {
    add_ha(*ha_sections[port], port);
  }

  // [recovery] wants the masters built (the HA-reset hook targets them), so
  // it wires after the HA loop.
  if (const IniSection* rec = ini.section("recovery")) {
    AXIHC_REQUIRE(cfg.kind == InterconnectKind::kHyperConnect,
                  "[recovery] requires interconnect = hyperconnect "
                  "(the stack drives the HyperConnect control interface)");
    wire_recovery(*rec);
  }

  const IniSection no_obs("observe");
  const IniSection* obs_section = ini.section("observe");
  const IniSection& obs = obs_section != nullptr ? *obs_section : no_obs;
  observe_.trace_capacity = obs.get_u64("trace_capacity");
  observe_.flight_capacity = obs.get_u64("flight_capacity");

  soc_->sim().reset();
}

void ConfiguredSystem::wire_recovery(const IniSection& rec) {
  HyperConnect* hc = soc_->hyperconnect();
  AXIHC_CHECK(hc != nullptr);
  const std::uint32_t num_ports = soc_->config().num_ports;

  register_master_ =
      std::make_unique<RegisterMaster>("hv_rm", hc->control_link());
  driver_ = std::make_unique<HyperConnectDriver>(*register_master_,
                                                 num_ports);

  RecoveryPolicy pol;
  pol.backoff_base = rec.get_u64("backoff_base");
  pol.backoff_max = rec.get_u64("backoff_max");
  pol.probation_window = rec.get_u64("probation_window");
  pol.max_attempts = rec.get_u32("max_attempts");
  pol.drain_timeout = rec.get_u64("drain_timeout");
  AXIHC_REQUIRE(pol.backoff_max >= pol.backoff_base,
                "[recovery] backoff_max (" << pol.backoff_max
                                           << ") is below backoff_base ("
                                           << pol.backoff_base << ")");
  recovery_ = std::make_unique<RecoveryManager>("recovery", *driver_, pol);

  // Baseline split = the [hyperconnect] budgets the hardware was built with
  // (missing entries are 0); graceful degradation defends it.
  std::vector<std::uint32_t> baseline = soc_->config().hc.initial_budgets;
  baseline.resize(num_ports, 0);
  recovery_->set_baseline_budgets(baseline);

  // DPR-style HA reset at the FSM's Resetting step: abandon everything the
  // accelerator still has in flight (the flushed link will never deliver
  // those responses) and restart its job engine.
  recovery_->set_ha_reset([this](PortIndex p) {
    if (p < masters_.size()) masters_[p]->abandon_in_flight();
    // The protocol monitor on its link (audited runs) shares its reset.
    if (p < monitors_.size()) monitors_[p]->interface_reset();
  });

  // The FSM advances only at watchdog polls: a shorter probation would
  // promote a recoupled port at its first poll, before any fault could be
  // observed.
  WatchdogPolicy wd;
  wd.poll_period = rec.get_u64("poll_period");
  AXIHC_REQUIRE(pol.probation_window >= wd.poll_period,
                "[recovery] probation_window ("
                    << pol.probation_window
                    << ") is shorter than poll_period (" << wd.poll_period
                    << ")");
  wd.max_txns_per_poll = rec.get_u64("max_txns_per_poll");
  hypervisor_ =
      std::make_unique<Hypervisor>("hv", *driver_, *recovery_, wd);

  soc_->add(*register_master_);
  soc_->add(*hypervisor_);
  soc_->add(*recovery_);
}

void ConfiguredSystem::wire_observability() {
  observability_wired_ = true;
  trace_.enable(observe_.trace);
  trace_.set_capacity(observe_.trace_capacity);

  HyperConnect* hc = soc_->hyperconnect();
  if (hc != nullptr) hc->set_trace(&trace_);
  soc_->memory_controller().set_trace(&trace_);
  for (auto& m : masters_) m->set_trace(&trace_);
  if (hypervisor_) hypervisor_->set_trace(&trace_);
  if (recovery_) recovery_->set_trace(&trace_);

  if (observe_.latency_audit || observe_.latency_bounds) {
    const SocConfig& cfg = soc_->config();
    const bool provenance = observe_.latency_audit;
    audit_ = std::make_unique<LatencyAudit>(
        cfg.num_ports, observe_.flight_capacity, provenance);
    audit_->set_enabled(true);
    audit_->set_trace(&trace_);
    audit_->set_mem_source(soc_->memory_controller().name());
    if (hc != nullptr) {
      hc->set_latency_audit(audit_.get());
      for (PortIndex p = 0; p < cfg.num_ports; ++p) {
        audit_->set_port_source(p, hc->name() + ".port" + std::to_string(p));
      }
      // The bound model goes to exactly the configurations --prove
      // certifies. Those are also the ones with the in-order pipeline on
      // both sides that positional memory-stage matching needs; the others
      // fall back to provenance-only auditing at the memory stage.
      const ProveInput in = prove_input();
      if (wcla_exclusions(in).empty()) {
        if (provenance) {
          soc_->memory_controller().set_latency_audit(audit_.get());
        }
        audit_->set_bound_model(in.analysis, in.platform);
      }
    }
    for (PortIndex p = 0; p < masters_.size(); ++p) {
      masters_[p]->set_latency_audit(audit_.get(), p);
    }
  }
  // A full audit also checks every HA's stream for AXI legality. The
  // monitors are passive observers: the digest does not move.
  if (observe_.latency_audit) {
    for (auto& m : masters_) {
      monitors_.push_back(
          std::make_unique<AxiMonitor>(m->name() + ".protocol", m->link()));
      soc_->add(*monitors_.back());
    }
  }

  // The registry's only reader is the sampler.
  if (!observe_.metrics) return;
  if (hc != nullptr) hc->register_metrics(registry_);
  soc_->memory_controller().register_metrics(registry_);
  for (auto& m : masters_) m->register_metrics(registry_);
  if (hypervisor_) hypervisor_->register_metrics(registry_);
  if (recovery_) recovery_->register_metrics(registry_);

  // APM-style byte counters on the FPGA-PS link, read from its R and W
  // traffic counters (64-bit bus: 8 bytes per beat): per-sample deltas are
  // the bytes moved per window.
  const AxiLink& ps = soc_->interconnect().master_link();
  registry_.add_counter("apm.read_bytes", [&ps] {
    return 8.0 * static_cast<double>(ps.r.total_pushes());
  });
  registry_.add_counter("apm.write_bytes", [&ps] {
    return 8.0 * static_cast<double>(ps.w.total_pushes());
  });

  // Trace-capacity drops as a first-class metric: a capped trace silently
  // losing events would skew any analysis built on it.
  registry_.add_counter("trace.dropped",
                        [this] { return static_cast<double>(trace_.dropped()); });
  if (audit_) audit_->register_metrics(registry_);

  sampler_ = std::make_unique<MetricsSampler>("sampler", registry_,
                                              observe_.sample_every);
  soc_->add(*sampler_);
}

void ConfiguredSystem::write_trace(std::ostream& os) const {
  write_chrome_trace(os, trace_, sampler_.get());
}

void ConfiguredSystem::write_metrics_csv(std::ostream& os) const {
  AXIHC_CHECK_MSG(sampler_ != nullptr,
                  "metrics were not enabled for this system");
  sampler_->write_csv(os);
}

AxiLink& ConfiguredSystem::attach_port(PortIndex port) {
  bool targeted = false;
  for (const FaultSpec& f : scenario_.faults) {
    if (f.port == port) {
      targeted = true;
      break;
    }
  }
  if (!targeted) return soc_->port(port);
  fault_links_.push_back(
      std::make_unique<AxiLink>("fault_link" + std::to_string(port)));
  AxiLink& ha_side = *fault_links_.back();
  ha_side.register_with(soc_->sim());
  injectors_.push_back(std::make_unique<FaultInjector>(
      "fault_inj" + std::to_string(port), ha_side, soc_->port(port),
      scenario_, port));
  soc_->add(*injectors_.back());
  return ha_side;
}

void ConfiguredSystem::add_ha(const IniSection& section, PortIndex port) {
  const std::string type = section.get_string("type");
  const std::string name = section.name();
  AxiLink& link = attach_port(port);
  const bool ooo = soc_->config().kind == InterconnectKind::kHyperConnect &&
                   soc_->config().hc.out_of_order;

  if (type == "dma") {
    DmaConfig cfg;
    cfg.mode = dma_mode_by_name(section.get_string("mode"));
    cfg.bytes_per_job = section.get_u64("bytes_per_job");
    cfg.burst_beats = section.get_u32("burst");
    cfg.max_outstanding = section.get_u32("outstanding");
    cfg.max_jobs = section.get_u64("max_jobs");
    cfg.read_base = section.get_u64("read_base", 0x1000'0000 +
                                                     (Addr{port} << 26));
    cfg.write_base = section.get_u64("write_base", 0x2000'0000 +
                                                       (Addr{port} << 26));
    cfg.tolerate_out_of_order = ooo;
    const AddrRange read_window =
        checked_window(cfg.read_base, cfg.bytes_per_job,
                       "[" + name + "] read_base + bytes_per_job");
    const AddrRange write_window =
        checked_window(cfg.write_base, cfg.bytes_per_job,
                       "[" + name + "] write_base + bytes_per_job");
    ProveHaModel model;
    model.name = name;
    model.burst_beats = cfg.burst_beats;
    model.reads = cfg.mode != DmaMode::kWrite;
    model.writes = cfg.mode != DmaMode::kRead;
    if (model.reads) {
      model.windows.push_back({name + " read buffer", read_window});
    }
    if (model.writes) {
      model.windows.push_back({name + " write buffer", write_window});
    }
    prove_has_.push_back(model);
    masters_.push_back(
        std::make_unique<DmaEngine>(name, link, cfg));
  } else if (type == "traffic") {
    TrafficConfig cfg;
    cfg.direction = direction_by_name(section.get_string("direction"));
    cfg.burst_beats = section.get_u32("burst");
    cfg.gap_cycles = section.get_u64("gap");
    cfg.max_outstanding = section.get_u32("outstanding");
    cfg.base = section.get_u64("base", 0x4000'0000 + (Addr{port} << 26));
    cfg.tolerate_out_of_order = ooo;
    ProveHaModel model;
    model.name = name;
    model.burst_beats = cfg.burst_beats;
    model.reads = cfg.direction != TrafficDirection::kWrite;
    model.writes = cfg.direction != TrafficDirection::kRead;
    model.windows.push_back(
        {name + " region",
         checked_window(cfg.base, cfg.region_bytes,
                        "[" + name + "] base + the " +
                            std::to_string(cfg.region_bytes) +
                            "-byte region")});
    prove_has_.push_back(model);
    masters_.push_back(
        std::make_unique<TrafficGenerator>(name, link, cfg));
  } else {  // dnn
    DnnConfig cfg;
    cfg.layers = section.get_string("network") == "alexnet"
                     ? alexnet_layers()
                     : googlenet_layers();
    const std::uint64_t scale = section.get_u64("scale");
    for (auto& l : cfg.layers) {
      l.weight_bytes /= scale;
      l.ifmap_bytes /= scale;
      l.ofmap_bytes /= scale;
      l.macs /= scale;
    }
    cfg.macs_per_cycle = section.get_u64("macs_per_cycle");
    cfg.max_frames = section.get_u64("max_frames");
    // Port 0 keeps DnnConfig's buffers; each further port's sit 2 GiB
    // higher, clear of each other and of every default dma/traffic window
    // (all below 0x5000'0000).
    cfg.weight_base += Addr{port} << 31;
    cfg.buffer_base += Addr{port} << 31;
    cfg.tolerate_out_of_order = ooo;
    ProveHaModel model;
    model.name = name;
    model.burst_beats = cfg.burst_beats;
    model.reads = true;   // weight/ifmap loads
    model.writes = true;  // ofmap stores
    std::uint64_t load_max = 0;
    std::uint64_t store_max = 0;
    for (const DnnLayer& l : cfg.layers) {
      load_max = std::max(load_max, l.weight_bytes + l.ifmap_bytes);
      store_max = std::max(store_max, l.ofmap_bytes);
    }
    model.windows.push_back(
        {name + " weight/ifmap buffer", {cfg.weight_base, load_max}});
    model.windows.push_back(
        {name + " ofmap buffer", {cfg.buffer_base, store_max}});
    prove_has_.push_back(model);
    masters_.push_back(
        std::make_unique<DnnAccelerator>(name, link, cfg));
  }
  ha_types_.push_back(type);
  soc_->add(*masters_.back());
}

Cycle ConfiguredSystem::run(Cycle override_cycles) {
  if (observe_.any() && !observability_wired_) wire_observability();
  const Cycle cycles =
      override_cycles != 0 ? override_cycles : configured_cycles_;
  soc_->sim().run(cycles);
  // Final cumulative sample: the last row of the time series then matches
  // the end-of-run totals (e.g. apm.read_bytes == bytes read over the link).
  if (sampler_) sampler_->finalize(soc_->sim().now());
  if (trace_.dropped() != 0) {
    AXIHC_LOG_WARN() << "trace capacity " << trace_.capacity() << " dropped "
                     << trace_.dropped()
                     << " events; raise [observe] trace_capacity or check "
                        "trace.dropped in the metrics series";
  }
  return soc_->sim().now();
}

std::uint64_t ConfiguredSystem::protocol_violations() const {
  std::uint64_t n = 0;
  for (const auto& m : monitors_) n += m->violations().size();
  return n;
}

const AxiMasterBase& ConfiguredSystem::ha(std::size_t i) const {
  AXIHC_CHECK(i < masters_.size());
  return *masters_[i];
}

const FaultInjector& ConfiguredSystem::injector(std::size_t i) const {
  AXIHC_CHECK(i < injectors_.size());
  return *injectors_[i];
}

const std::string& ConfiguredSystem::ha_type(std::size_t i) const {
  AXIHC_CHECK(i < ha_types_.size());
  return ha_types_[i];
}

ProveInput ConfiguredSystem::prove_input() const {
  const SocConfig& cfg = soc_->config();
  ProveInput in;
  in.hyperconnect = cfg.kind == InterconnectKind::kHyperConnect;
  in.num_ports = cfg.num_ports;

  in.analysis.num_ports = cfg.num_ports;
  in.analysis.nominal_burst = cfg.hc.nominal_burst;
  in.analysis.reservation_period = cfg.hc.reservation_period;
  in.analysis.budgets = cfg.hc.initial_budgets;
  in.analysis.budgets.resize(cfg.num_ports, 0);
  in.analysis.competitor_backlog = cfg.hc.max_outstanding;
  in.platform = analysis_platform(cfg.mem);
  in.out_of_order = in.hyperconnect && cfg.hc.out_of_order;
  in.in_order_memory = cfg.mem.scheduling == MemScheduling::kInOrder;
  in.decode = cfg.mem.mapped_ranges;
  in.has = prove_has_;
  return in;
}

ProveReport ConfiguredSystem::prove() const {
  return axihc::prove(prove_input());
}

std::string ConfiguredSystem::report() const {
  const Cycle now = soc_->sim().now();
  const RateMeter meter = platform_.rate_meter();
  std::ostringstream os;
  os << "platform: " << platform_.name << ", " << now << " cycles ("
     << Table::num(meter.to_us(now) / 1000.0, 2) << " ms)\n\n";

  Table t({"HA", "type", "bytes read", "bytes written", "read BW (MB/s)",
           "write BW (MB/s)", "max read lat (cyc)", "failed"});
  for (std::size_t i = 0; i < masters_.size(); ++i) {
    const MasterStats& s = masters_[i]->stats();
    t.add_row(
        {masters_[i]->name(), ha_types_[i], std::to_string(s.bytes_read),
         std::to_string(s.bytes_written),
         Table::num(meter.bytes_per_second(s.bytes_read, now) / 1e6, 1),
         Table::num(meter.bytes_per_second(s.bytes_written, now) / 1e6, 1),
         s.read_latency.count() ? std::to_string(s.read_latency.max())
                                : "-",
         std::to_string(s.reads_failed + s.writes_failed)});
  }
  t.print_markdown(os);
  return os.str();
}

std::unique_ptr<ConfiguredSystem> build_system(const std::string& ini_text) {
  return std::make_unique<ConfiguredSystem>(IniFile::parse(ini_text));
}

}  // namespace axihc
