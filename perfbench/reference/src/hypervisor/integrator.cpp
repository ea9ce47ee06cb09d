#include "hypervisor/integrator.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

void SystemIntegrator::add_accelerator(AcceleratorIp ip) {
  bool has_master = false;
  for (const auto& iface : ip.description.bus_interfaces) {
    if (iface.mode == BusInterfaceMode::kMaster && iface.bus_type == "aximm") {
      has_master = true;
      break;
    }
  }
  AXIHC_CHECK_MSG(has_master, "accelerator '" << ip.description.name
                                              << "' exposes no AXI master "
                                                 "data interface");
  AXIHC_CHECK_MSG(!ip.domain_name.empty(),
                  "accelerator '" << ip.description.name
                                  << "' has no domain assignment");
  ips_.push_back(std::move(ip));
}

SocDesign SystemIntegrator::integrate(const HyperConnectConfig& cfg) const {
  AXIHC_CHECK_MSG(ips_.size() <= cfg.num_ports,
                  "design needs " << ips_.size()
                                  << " interconnect ports but the "
                                     "HyperConnect has only "
                                  << cfg.num_ports);
  SocDesign design;
  design.interconnect = describe_hyperconnect(cfg);

  double total_fraction = 0.0;
  for (PortIndex port = 0; port < ips_.size(); ++port) {
    const AcceleratorIp& ip = ips_[port];
    design.port_assignment.push_back(ip.description.name);

    Domain* domain = nullptr;
    for (auto& d : design.domains) {
      if (d.name == ip.domain_name) {
        domain = &d;
        break;
      }
    }
    if (domain == nullptr) {
      design.domains.push_back(Domain{ip.domain_name, ip.criticality, {}, 0});
      domain = &design.domains.back();
    }
    AXIHC_CHECK_MSG(domain->criticality == ip.criticality,
                    "domain '" << ip.domain_name
                               << "' declared with inconsistent criticality");
    domain->ports.push_back(port);
    domain->bandwidth_fraction += ip.bandwidth_fraction;
    total_fraction += ip.bandwidth_fraction;
  }
  AXIHC_CHECK_MSG(total_fraction <= 1.0 + 1e-9,
                  "bandwidth fractions sum to " << total_fraction << " > 1");
  return design;
}

}  // namespace axihc
