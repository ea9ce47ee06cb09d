// The full §II offload pattern: SW-tasks on the PS programming HAs over
// their AXI control interfaces, HAs working asynchronously through the
// HyperConnect, completion interrupts closing the loop.
//
// Two applications:
//  * a vision SW-task running GoogleNet-like inference frames on a DNN HA;
//  * a storage SW-task running buffer moves on a DMA HA;
// both measured by their end-to-end request response times, with a 70/30
// reservation keeping the vision pipeline predictable.
#include <iostream>

#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"
#include "hypervisor/domain.hpp"
#include "ps/ha_control_slave.hpp"
#include "ps/sw_task.hpp"
#include "soc/soc.hpp"
#include "stats/stats.hpp"
#include "stats/table.hpp"

int main() {
  using namespace axihc;

  // Platform with a 70/30 reservation split.
  SocConfig cfg;
  cfg.kind = InterconnectKind::kHyperConnect;
  cfg.num_ports = 2;
  const ReservationPlan plan =
      plan_bandwidth_split(2000, 27.0, {0.7, 0.3});
  cfg.hc.reservation_period = plan.period;
  cfg.hc.initial_budgets = plan.budgets;
  SocSystem soc(cfg);

  InterruptController irq(2);

  // Vision HA: a small DNN (1/32-scale GoogleNet), one frame per request.
  DnnConfig dnn_cfg;
  dnn_cfg.layers = googlenet_layers();
  for (auto& l : dnn_cfg.layers) {
    l.weight_bytes /= 32;
    l.ifmap_bytes /= 32;
    l.ofmap_bytes /= 32;
    l.macs /= 32;
  }
  dnn_cfg.externally_triggered = true;
  DnnAccelerator dnn("dnn", soc.port(0), dnn_cfg);
  AxiLink dnn_ctrl("dnn_ctrl");
  HaControlSlave dnn_slave("dnn_slave", dnn_ctrl, dnn, irq, 0);
  SwTaskConfig vision_cfg;
  vision_cfg.irq_line = 0;
  vision_cfg.max_requests = 8;
  vision_cfg.think_cycles = 500;  // post-processing between frames
  SwTask vision("vision_task", dnn_ctrl, irq, vision_cfg);

  // Storage HA: a DMA moving 64 KB per request.
  DmaConfig dma_cfg;
  dma_cfg.mode = DmaMode::kReadWrite;
  dma_cfg.bytes_per_job = 64 << 10;
  dma_cfg.externally_triggered = true;
  DmaEngine dma("dma", soc.port(1), dma_cfg);
  AxiLink dma_ctrl("dma_ctrl");
  HaControlSlave dma_slave("dma_slave", dma_ctrl, dma, irq, 1);
  SwTaskConfig storage_cfg;
  storage_cfg.irq_line = 1;
  storage_cfg.max_requests = 20;
  storage_cfg.think_cycles = 100;
  SwTask storage("storage_task", dma_ctrl, irq, storage_cfg);

  dnn_ctrl.register_with(soc.sim());
  dma_ctrl.register_with(soc.sim());
  soc.add(dnn);
  soc.add(dnn_slave);
  soc.add(vision);
  soc.add(dma);
  soc.add(dma_slave);
  soc.add(storage);
  soc.sim().reset();

  soc.sim().run_until(
      [&] { return vision.finished() && storage.finished(); }, 100'000'000);

  const RateMeter meter(150e6);
  std::cout << "SW-task offload demo (70/30 reservation, "
            << soc.sim().now() << " cycles simulated)\n\n";
  Table t({"SW-task", "requests", "response min (us)", "mean (us)",
           "max (us)", "interrupts"});
  auto row = [&](const SwTask& task, std::uint32_t line) {
    const LogHistogram& rt = task.response_times();
    t.add_row({task.name(), std::to_string(task.requests_completed()),
               Table::num(meter.to_us(rt.min()), 1),
               Table::num(meter.to_us(static_cast<Cycle>(rt.mean())), 1),
               Table::num(meter.to_us(rt.max()), 1),
               std::to_string(irq.raised_count(line))});
  };
  row(vision, 0);
  row(storage, 1);
  t.print_markdown(std::cout);

  std::cout << "\nEach request ran start-command -> control bus -> HA -> "
               "shared memory ->\ncompletion interrupt -> SW-task, with the "
               "HyperConnect isolating the two\ndomains' bus traffic "
               "throughout.\n";
  return 0;
}
