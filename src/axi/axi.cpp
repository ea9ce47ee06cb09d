#include "axi/axi.hpp"

namespace axihc {

std::uint64_t burst_bytes(const AddrReq& req) {
  return static_cast<std::uint64_t>(req.beats) << req.size_log2;
}

Addr burst_end(const AddrReq& req) {
  if (req.burst == BurstType::kFixed) {
    return req.addr + (std::uint64_t{1} << req.size_log2);
  }
  return req.addr + burst_bytes(req);
}

bool crosses_4k(const AddrReq& req) {
  if (req.burst != BurstType::kIncr) return false;
  constexpr Addr kBoundary = 4096;
  const Addr first = req.addr / kBoundary;
  const Addr last = (burst_end(req) - 1) / kBoundary;
  return first != last;
}

AxiLink::AxiLink(const std::string& name, AxiLinkConfig cfg)
    : ar(name + ".AR", cfg.ar_depth),
      r(name + ".R", cfg.r_depth),
      aw(name + ".AW", cfg.aw_depth),
      w(name + ".W", cfg.w_depth),
      b(name + ".B", cfg.b_depth),
      name_(name) {}

void AxiLink::register_with(Simulator& sim) {
  sim.add(ar);
  sim.add(r);
  sim.add(aw);
  sim.add(w);
  sim.add(b);
}

}  // namespace axihc
