// IP-XACT component descriptions (§V-A "Openness", §IV integration flow).
//
// The paper exports the AXI HyperConnect following the IP-XACT standard so
// it can be consumed by commercial system-integration tools (Xilinx Vivado,
// Intel Platform Designer). This module writes the subset of IP-XACT 2014
// (spirit namespace) needed to describe the HyperConnect: the VLNV
// identity, bus interfaces (AXI master/slave) and configuration parameters.
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

/// The IP-XACT description of an AXI HyperConnect instance: N slave ports,
/// one master port, the control slave interface, and the synthesis
/// parameters.
[[nodiscard]] IpxactComponent describe_hyperconnect(
    const HyperConnectConfig& cfg);

}  // namespace axihc
