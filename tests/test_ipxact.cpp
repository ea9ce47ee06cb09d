// IP-XACT export tests: XML writing and component descriptions.
#include "ipxact/ipxact.hpp"

#include <gtest/gtest.h>

#include "ipxact/xml.hpp"

namespace axihc {
namespace {

TEST(Xml, EscapeRoundTrip) {
  EXPECT_EQ(xml_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
}

TEST(Xml, BuildAndSerialize) {
  XmlNode root("root");
  root.set_attribute("k", "v<1>");
  root.add_text_child("child", "text & more");
  const std::string s = root.to_string();
  EXPECT_NE(s.find("<root k=\"v&lt;1&gt;\">"), std::string::npos);
  EXPECT_NE(s.find("<child>text &amp; more</child>"), std::string::npos);
}

TEST(Ipxact, HyperConnectDescriptionHasAllInterfaces) {
  HyperConnectConfig cfg;
  cfg.num_ports = 3;
  const IpxactComponent c = describe_hyperconnect(cfg);
  EXPECT_EQ(c.vlnv(), "sssa.it:interconnect:axi_hyperconnect:1.0");
  // 3 slave ports + 1 master + 1 control slave.
  ASSERT_EQ(c.bus_interfaces.size(), 5u);
  int masters = 0;
  int slaves = 0;
  for (const auto& i : c.bus_interfaces) {
    (i.mode == BusInterfaceMode::kMaster ? masters : slaves)++;
  }
  EXPECT_EQ(masters, 1);
  EXPECT_EQ(slaves, 4);
}

TEST(Ipxact, ParametersCaptureConfiguration) {
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 8;
  cfg.reservation_period = 1234;
  const IpxactComponent c = describe_hyperconnect(cfg);
  auto param = [&](const std::string& name) -> std::string {
    for (const auto& p : c.parameters) {
      if (p.name == name) return p.value;
    }
    return "";
  };
  EXPECT_EQ(param("NUM_PORTS"), "2");
  EXPECT_EQ(param("NOMINAL_BURST"), "8");
  EXPECT_EQ(param("RESERVATION_PERIOD"), "1234");
}

TEST(Ipxact, ExportMatchesGoldenText) {
  // The whole document a system-integration tool would read, byte for byte.
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.reservation_period = 1000;
  EXPECT_EQ(to_ipxact_xml(describe_hyperconnect(cfg)), R"(<?xml version="1.0" encoding="UTF-8"?>
<spirit:component xmlns:spirit="http://www.spiritconsortium.org/XMLSchema/SPIRIT/1685-2009">
  <spirit:vendor>sssa.it</spirit:vendor>
  <spirit:library>interconnect</spirit:library>
  <spirit:name>axi_hyperconnect</spirit:name>
  <spirit:version>1.0</spirit:version>
  <spirit:busInterfaces>
    <spirit:busInterface>
      <spirit:name>S0_AXI</spirit:name>
      <spirit:busType spirit:name="aximm"/>
      <spirit:slave/>
    </spirit:busInterface>
    <spirit:busInterface>
      <spirit:name>S1_AXI</spirit:name>
      <spirit:busType spirit:name="aximm"/>
      <spirit:slave/>
    </spirit:busInterface>
    <spirit:busInterface>
      <spirit:name>M_AXI</spirit:name>
      <spirit:busType spirit:name="aximm"/>
      <spirit:master/>
    </spirit:busInterface>
    <spirit:busInterface>
      <spirit:name>S_AXI_CTRL</spirit:name>
      <spirit:busType spirit:name="aximm-lite"/>
      <spirit:slave/>
    </spirit:busInterface>
  </spirit:busInterfaces>
  <spirit:parameters>
    <spirit:parameter>
      <spirit:name>NUM_PORTS</spirit:name>
      <spirit:value>2</spirit:value>
    </spirit:parameter>
    <spirit:parameter>
      <spirit:name>NOMINAL_BURST</spirit:name>
      <spirit:value>16</spirit:value>
    </spirit:parameter>
    <spirit:parameter>
      <spirit:name>MAX_OUTSTANDING</spirit:name>
      <spirit:value>4</spirit:value>
    </spirit:parameter>
    <spirit:parameter>
      <spirit:name>RESERVATION_PERIOD</spirit:name>
      <spirit:value>1000</spirit:value>
    </spirit:parameter>
    <spirit:parameter>
      <spirit:name>ROUTE_CAPACITY</spirit:name>
      <spirit:value>64</spirit:value>
    </spirit:parameter>
  </spirit:parameters>
</spirit:component>
)");
}

}  // namespace
}  // namespace axihc
