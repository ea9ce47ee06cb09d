// Record-and-replay workflow: capture the address trace of a live workload
// with an AxiMonitor watching its port, save it in the text trace format,
// and replay it — against the same interconnect and against the
// SmartConnect baseline — to compare how the two serve identical traffic.
//
//   $ ./trace_replay            # record + replay, print the comparison
#include <iostream>
#include <sstream>

#include "axi/monitor.hpp"
#include "axi/trace_format.hpp"
#include "ha/dnn_accelerator.hpp"
#include "ha/trace_player.hpp"
#include "interconnect/smartconnect.hpp"
#include "soc/soc.hpp"
#include "stats/table.hpp"

namespace {

using namespace axihc;

/// Replays `trace` through the chosen interconnect; returns (cycles to
/// drain, max read latency).
std::pair<Cycle, Cycle> replay(const std::vector<TraceEntry>& trace,
                               InterconnectKind kind) {
  SocConfig cfg;
  cfg.kind = kind;
  cfg.num_ports = 2;
  SocSystem soc(cfg);
  TracePlayer player("replay", soc.port(0), trace);
  soc.add(player);
  soc.sim().reset();
  soc.sim().run_until([&] { return player.finished(); }, 100'000'000);
  return {soc.sim().now(), player.stats().read_latency.count()
                               ? player.stats().read_latency.max()
                               : 0};
}

}  // namespace

int main() {
  using namespace axihc;

  // --- record: one DNN frame on a monitored HyperConnect port -----------
  std::vector<TraceEntry> trace;
  {
    SocConfig cfg;
    cfg.kind = InterconnectKind::kHyperConnect;
    cfg.num_ports = 2;
    SocSystem soc(cfg);
    AxiMonitor recorder("rec", soc.port(0));
    recorder.set_trace_sink(&trace);
    soc.add(recorder);

    DnnConfig dnn_cfg;
    dnn_cfg.layers = googlenet_layers();
    for (auto& l : dnn_cfg.layers) {  // 1/64 scale: a quick demo frame
      l.weight_bytes /= 64;
      l.ifmap_bytes /= 64;
      l.ofmap_bytes /= 64;
      l.macs /= 64;
    }
    dnn_cfg.max_frames = 1;
    DnnAccelerator dnn("dnn", soc.port(0), dnn_cfg);
    soc.add(dnn);
    soc.sim().reset();
    trace.clear();
    soc.sim().run_until([&] { return dnn.finished(); }, 100'000'000);
  }

  std::ostringstream serialized;
  write_trace(serialized, trace);
  std::cout << "Recorded " << trace.size()
            << " address requests from one scaled GoogleNet frame ("
            << serialized.str().size() << " bytes of trace text).\n";
  std::cout << "First lines:\n";
  std::istringstream head(serialized.str());
  std::string line;
  for (int i = 0; i < 4 && std::getline(head, line); ++i) {
    std::cout << "  " << line << "\n";
  }

  // Round-trip through the text format, as a file on disk would.
  const std::vector<TraceEntry> reloaded = parse_trace(serialized.str());

  // --- replay on both interconnects --------------------------------------
  const auto [hc_cycles, hc_max] =
      replay(reloaded, InterconnectKind::kHyperConnect);
  const auto [sc_cycles, sc_max] =
      replay(reloaded, InterconnectKind::kSmartConnect);

  std::cout << "\nReplaying the identical trace:\n\n";
  Table t({"interconnect", "drain time (cycles)", "max txn latency (cycles)"});
  t.add_row({"HyperConnect", std::to_string(hc_cycles),
             std::to_string(hc_max)});
  t.add_row({"SmartConnect", std::to_string(sc_cycles),
             std::to_string(sc_max)});
  t.print_markdown(std::cout);
  std::cout << "\nSame addresses, same issue cycles — the per-transaction "
               "latency gap is purely\nthe interconnects' pipelines "
               "(Fig. 3 in controlled form).\n";
  return 0;
}
