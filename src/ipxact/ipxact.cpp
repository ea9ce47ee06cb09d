#include "ipxact/ipxact.hpp"

#include "ipxact/xml.hpp"

namespace axihc {

std::string IpxactComponent::vlnv() const {
  return vendor + ":" + library + ":" + name + ":" + version;
}

std::string to_ipxact_xml(const IpxactComponent& component) {
  XmlNode root("spirit:component");
  root.set_attribute("xmlns:spirit",
                     "http://www.spiritconsortium.org/XMLSchema/SPIRIT/1685-2009");
  root.add_text_child("spirit:vendor", component.vendor);
  root.add_text_child("spirit:library", component.library);
  root.add_text_child("spirit:name", component.name);
  root.add_text_child("spirit:version", component.version);

  XmlNode& interfaces = root.add_child("spirit:busInterfaces");
  for (const auto& iface : component.bus_interfaces) {
    XmlNode& node = interfaces.add_child("spirit:busInterface");
    node.add_text_child("spirit:name", iface.name);
    XmlNode& bus_type = node.add_child("spirit:busType");
    bus_type.set_attribute("spirit:name", iface.bus_type);
    node.add_child(iface.mode == BusInterfaceMode::kMaster ? "spirit:master"
                                                           : "spirit:slave");
  }

  XmlNode& params = root.add_child("spirit:parameters");
  for (const auto& p : component.parameters) {
    XmlNode& node = params.add_child("spirit:parameter");
    node.add_text_child("spirit:name", p.name);
    node.add_text_child("spirit:value", p.value);
  }
  return root.to_string();
}

IpxactComponent describe_hyperconnect(const HyperConnectConfig& cfg) {
  IpxactComponent c;
  c.vendor = "sssa.it";
  c.library = "interconnect";
  c.name = "axi_hyperconnect";
  c.version = "1.0";
  for (std::uint32_t i = 0; i < cfg.num_ports; ++i) {
    c.bus_interfaces.push_back(
        {"S" + std::to_string(i) + "_AXI", BusInterfaceMode::kSlave, "aximm"});
  }
  c.bus_interfaces.push_back({"M_AXI", BusInterfaceMode::kMaster, "aximm"});
  c.bus_interfaces.push_back(
      {"S_AXI_CTRL", BusInterfaceMode::kSlave, "aximm-lite"});
  c.parameters.push_back({"NUM_PORTS", std::to_string(cfg.num_ports)});
  c.parameters.push_back(
      {"NOMINAL_BURST", std::to_string(cfg.nominal_burst)});
  c.parameters.push_back(
      {"MAX_OUTSTANDING", std::to_string(cfg.max_outstanding)});
  c.parameters.push_back(
      {"RESERVATION_PERIOD", std::to_string(cfg.reservation_period)});
  c.parameters.push_back(
      {"ROUTE_CAPACITY", std::to_string(cfg.route_capacity)});
  return c;
}

}  // namespace axihc
