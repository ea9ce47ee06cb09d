#include "ipxact/ipxact.hpp"

#include "common/check.hpp"
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

IpxactComponent parse_ipxact_xml(const std::string& xml) {
  const auto root = parse_xml(xml);
  AXIHC_CHECK_MSG(root->tag() == "spirit:component",
                  "not an IP-XACT component document (root <" << root->tag()
                                                              << ">)");
  IpxactComponent out;
  out.vendor = root->child_text("spirit:vendor");
  out.library = root->child_text("spirit:library");
  out.name = root->child_text("spirit:name");
  out.version = root->child_text("spirit:version");
  AXIHC_CHECK_MSG(!out.name.empty(), "IP-XACT component without a name");

  if (const XmlNode* interfaces = root->child("spirit:busInterfaces")) {
    for (const XmlNode* node :
         interfaces->children_named("spirit:busInterface")) {
      IpxactBusInterface iface;
      iface.name = node->child_text("spirit:name");
      if (const XmlNode* bus_type = node->child("spirit:busType")) {
        if (const std::string* type_name =
                bus_type->attribute("spirit:name")) {
          iface.bus_type = *type_name;
        }
      }
      iface.mode = node->child("spirit:master") != nullptr
                       ? BusInterfaceMode::kMaster
                       : BusInterfaceMode::kSlave;
      out.bus_interfaces.push_back(std::move(iface));
    }
  }
  if (const XmlNode* params = root->child("spirit:parameters")) {
    for (const XmlNode* node : params->children_named("spirit:parameter")) {
      out.parameters.push_back(
          {node->child_text("spirit:name"), node->child_text("spirit:value")});
    }
  }
  return out;
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

IpxactComponent describe_accelerator(const std::string& name,
                                     const std::string& vendor) {
  IpxactComponent c;
  c.vendor = vendor;
  c.library = "accelerators";
  c.name = name;
  c.version = "1.0";
  c.bus_interfaces.push_back({"M_AXI_DATA", BusInterfaceMode::kMaster,
                              "aximm"});
  c.bus_interfaces.push_back({"S_AXI_CTRL", BusInterfaceMode::kSlave,
                              "aximm-lite"});
  return c;
}

}  // namespace axihc
