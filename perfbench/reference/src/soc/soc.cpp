#include "soc/soc.hpp"

#include "common/check.hpp"

namespace axihc {

SocSystem::SocSystem(SocConfig cfg) : cfg_(cfg) {
  if (cfg_.kind == InterconnectKind::kHyperConnect) {
    cfg_.hc.num_ports = cfg_.num_ports;
    auto hc = std::make_unique<HyperConnect>("hc", cfg_.hc);
    hc->register_with(sim_);
    icn_ = std::move(hc);
  } else {
    auto sc = std::make_unique<SmartConnect>("sc", cfg_.num_ports, cfg_.sc);
    sc->register_with(sim_);
    icn_ = std::move(sc);
  }
  mem_ = std::make_unique<MemoryController>("ddr", icn_->master_link(),
                                            store_, cfg_.mem);
  sim_.add(*mem_);
}

HyperConnect* SocSystem::hyperconnect() {
  return dynamic_cast<HyperConnect*>(icn_.get());
}

}  // namespace axihc
