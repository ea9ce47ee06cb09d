#include "interconnect/interconnect.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

Interconnect::Interconnect(std::string name, std::uint32_t num_ports,
                           AxiLinkConfig port_link_cfg,
                           AxiLinkConfig master_link_cfg)
    : Component(std::move(name)), counters_(num_ports) {
  AXIHC_CHECK_MSG(num_ports >= 1, "interconnect needs at least one port");
  port_links_.reserve(num_ports);
  for (std::uint32_t i = 0; i < num_ports; ++i) {
    port_links_.push_back(std::make_unique<AxiLink>(
        Component::name() + ".s" + std::to_string(i), port_link_cfg));
  }
  master_link_ = std::make_unique<AxiLink>(Component::name() + ".m",
                                           master_link_cfg);
}

void Interconnect::append_digest(StateDigest& d) const {
  for (const PortCounters& c : counters_) {
    d.mix(c.ar_granted);
    d.mix(c.aw_granted);
    d.mix(c.r_beats);
    d.mix(c.w_beats);
    d.mix(c.b_resps);
  }
}

Interconnect::~Interconnect() = default;

AxiLink& Interconnect::port_link(PortIndex i) {
  AXIHC_CHECK(i < port_links_.size());
  return *port_links_[i];
}

const AxiLink& Interconnect::port_link(PortIndex i) const {
  AXIHC_CHECK(i < port_links_.size());
  return *port_links_[i];
}

void Interconnect::register_with(Simulator& sim) {
  for (auto& link : port_links_) link->register_with(sim);
  master_link_->register_with(sim);
  sim.add(*this);
}

const PortCounters& Interconnect::counters(PortIndex i) const {
  AXIHC_CHECK(i < counters_.size());
  return counters_[i];
}

PortCounters& Interconnect::mutable_counters(PortIndex i) {
  AXIHC_CHECK(i < counters_.size());
  return counters_[i];
}

}  // namespace axihc
