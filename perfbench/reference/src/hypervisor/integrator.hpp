// System integrator model (§IV "Considered framework").
//
// Applications hand their HAs to the system integrator as IP-XACT
// descriptions; the integrator embeds them into an FPGA design, connecting
// each HA master port to a HyperConnect input port and the HyperConnect
// master port to the FPGA-PS interface, then "synthesizes" the design. Here
// that means: validate the IP descriptions, perform the port assignment,
// and produce a design report (our stand-in for the bitstream) that the
// hypervisor uses to know which port belongs to which domain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hypervisor/domain.hpp"
#include "ipxact/ipxact.hpp"

namespace axihc {

/// One HA contributed by an application.
struct AcceleratorIp {
  IpxactComponent description;
  std::string domain_name;
  Criticality criticality = Criticality::kLow;
  double bandwidth_fraction = 0.0;
};

/// Result of the integration phase.
struct SocDesign {
  /// Port assignment: entry i names the HA connected to HyperConnect port i.
  std::vector<std::string> port_assignment;
  /// Domains with their resolved port lists and bandwidth fractions.
  std::vector<Domain> domains;
  /// The HyperConnect IP-XACT description instantiated in the design.
  IpxactComponent interconnect;
};

class SystemIntegrator {
 public:
  /// Registers an application HA. The description must expose an AXI master
  /// data interface (this is what connects to the HyperConnect).
  void add_accelerator(AcceleratorIp ip);

  /// Performs the integration against a HyperConnect with `cfg`:
  /// assigns ports in registration order, groups HAs into domains, and
  /// validates that the interconnect has enough input ports.
  [[nodiscard]] SocDesign integrate(const HyperConnectConfig& cfg) const;

  [[nodiscard]] std::size_t accelerator_count() const { return ips_.size(); }

 private:
  std::vector<AcceleratorIp> ips_;
};

}  // namespace axihc
