#include "hyperconnect/exbar.hpp"

#include "common/check.hpp"

namespace axihc {

Exbar::Exbar(std::uint32_t num_ports, std::uint32_t route_capacity,
             bool order_based_routing)
    : num_ports_(num_ports),
      order_based_(order_based_routing),
      read_route_(route_capacity),
      write_route_(route_capacity),
      b_route_(route_capacity) {
  AXIHC_CHECK(num_ports_ >= 1);
  AXIHC_CHECK(route_capacity >= 1);
}

void Exbar::reset() {
  rr_ar_ = 0;
  rr_aw_ = 0;
  read_route_.clear();
  write_route_.clear();
  b_route_.clear();
}

std::optional<PortIndex> Exbar::pick(
    std::vector<TimingChannel<AddrReq>*>& chans, PortIndex& rr) const {
  // The candidate scan wraps rr+i with a compare-subtract instead of a
  // modulo: both operands are < num_ports_, and the hardware divide was the
  // single hottest instruction of the whole kernel (per-port, per-channel,
  // per-cycle).
  // Fixed granularity round-robin: after granting port p, the pointer moves
  // past p, so each port gets at most one transaction per round-cycle.
  for (std::uint32_t i = 0; i < num_ports_; ++i) {
    PortIndex cand = rr + i;
    if (cand >= num_ports_) cand -= num_ports_;
    if (chans[cand]->can_pop()) return cand;
  }
  return std::nullopt;
}

std::optional<PortIndex> Exbar::grant_read(
    std::vector<TimingChannel<AddrReq>*>& ts_ar, TimingChannel<AddrReq>& out) {
  if (!out.can_push() || (order_based_ && read_route_.full())) {
    return std::nullopt;
  }
  const std::optional<PortIndex> cand = pick(ts_ar, rr_ar_);
  if (!cand.has_value()) return std::nullopt;
  out.push(ts_ar[*cand]->pop());
  if (order_based_) read_route_.push({*cand});
  rr_ar_ = *cand + 1 == num_ports_ ? 0 : *cand + 1;
  return cand;
}

std::optional<PortIndex> Exbar::grant_write(
    std::vector<TimingChannel<AddrReq>*>& ts_aw, TimingChannel<AddrReq>& out) {
  if (!out.can_push() || write_route_.full() ||
      (order_based_ && b_route_.full())) {
    return std::nullopt;
  }
  const std::optional<PortIndex> cand = pick(ts_aw, rr_aw_);
  if (!cand.has_value()) return std::nullopt;
  const AddrReq req = ts_aw[*cand]->pop();
  write_route_.push({*cand, req.beats, req.tag != 0});
  if (order_based_) b_route_.push(*cand);
  out.push(req);
  rr_aw_ = *cand + 1 == num_ports_ ? 0 : *cand + 1;
  return cand;
}

}  // namespace axihc
