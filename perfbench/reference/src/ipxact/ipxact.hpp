// IP-XACT component descriptions (§V-A "Openness", §IV integration flow).
//
// The paper exports the AXI HyperConnect following the IP-XACT standard so
// it can be consumed by commercial system-integration tools (Xilinx Vivado,
// Intel Platform Designer). This module writes and reads the subset of
// IP-XACT 2014 (spirit namespace) needed to describe the components of this
// library: the VLNV identity, bus interfaces (AXI master/slave) and
// configuration parameters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hyperconnect/config.hpp"

namespace axihc {

enum class BusInterfaceMode { kMaster, kSlave };

struct IpxactBusInterface {
  std::string name;
  BusInterfaceMode mode = BusInterfaceMode::kSlave;
  /// Bus definition type, e.g. "aximm" or "aximm-lite".
  std::string bus_type = "aximm";
};

struct IpxactParameter {
  std::string name;
  std::string value;
};

struct IpxactComponent {
  std::string vendor;
  std::string library;
  std::string name;
  std::string version;
  std::vector<IpxactBusInterface> bus_interfaces;
  std::vector<IpxactParameter> parameters;

  /// VLNV identity string, "vendor:library:name:version".
  [[nodiscard]] std::string vlnv() const;
};

/// Serializes to IP-XACT XML (spirit:component document).
[[nodiscard]] std::string to_ipxact_xml(const IpxactComponent& component);

/// Parses an IP-XACT XML document produced by to_ipxact_xml (or a
/// compatible subset). Throws ModelError on malformed input.
[[nodiscard]] IpxactComponent parse_ipxact_xml(const std::string& xml);

/// The IP-XACT description of an AXI HyperConnect instance: N slave ports,
/// one master port, the control slave interface, and the synthesis
/// parameters.
[[nodiscard]] IpxactComponent describe_hyperconnect(
    const HyperConnectConfig& cfg);

/// The IP-XACT description of a generic HA (control slave + data master),
/// as an application would hand it to the system integrator.
[[nodiscard]] IpxactComponent describe_accelerator(const std::string& name,
                                                   const std::string& vendor);

}  // namespace axihc
