// EXBAR — efficient crossbar (§V-B).
//
// Solves conflicts among the address requests propagated by the TS modules
// with round-robin arbitration at a FIXED granularity of one transaction per
// TS module per round-cycle (unlike SmartConnect's variable granularity,
// which inflates worst-case interference to g×(N−1) transactions). It keeps
// the grant order ("routing information") in circular buffers and uses it to
// route the R, W and B channels proactively, adding one cycle of latency on
// address requests and none on data/response channels.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>


#include "axi/axi.hpp"
#include "common/ring_buffer.hpp"
#include "interconnect/interconnect.hpp"
#include "sim/channel.hpp"

namespace axihc {

/// One entry of the write routing memory: which port's W data to pull next,
/// for how many beats, and whether the HA's original WLAST is expected on
/// the final beat (i.e. this is the last sub-burst of the HA transaction).
struct ExbarWriteRoute {
  PortIndex port = 0;
  BeatCount beats = 0;
  bool expects_orig_last = false;
};

class Exbar {
 public:
  /// Crossbar over `num_ports` TS outputs with routing memories of
  /// `route_capacity` entries each. With `order_based_routing == false`
  /// (the out-of-order extension) the R and B routing memories are unused:
  /// responses are routed by their extended IDs instead; only the W pull
  /// order (an AXI4 requirement regardless) is recorded.
  Exbar(std::uint32_t num_ports, std::uint32_t route_capacity,
        bool order_based_routing = true);

  /// Round-robin grant of at most one read address request: pops from one of
  /// `ts_ar` into `out` and records routing info. Returns the granted port.
  std::optional<PortIndex> grant_read(
      std::vector<TimingChannel<AddrReq>*>& ts_ar,
      TimingChannel<AddrReq>& out);

  /// Round-robin grant of at most one write address request. The sub-AW's
  /// tag (set by the TS) says whether it is the final sub-burst of its HA
  /// transaction.
  std::optional<PortIndex> grant_write(
      std::vector<TimingChannel<AddrReq>*>& ts_aw,
      TimingChannel<AddrReq>& out);

  /// Routing memories, consumed by the HyperConnect's proactive R/W/B paths.
  [[nodiscard]] RingBuffer<ReadRoute>& read_route() { return read_route_; }
  [[nodiscard]] const RingBuffer<ReadRoute>& read_route() const {
    return read_route_;
  }
  [[nodiscard]] RingBuffer<ExbarWriteRoute>& write_route() {
    return write_route_;
  }
  [[nodiscard]] const RingBuffer<ExbarWriteRoute>& write_route() const {
    return write_route_;
  }
  [[nodiscard]] RingBuffer<PortIndex>& b_route() { return b_route_; }
  [[nodiscard]] const RingBuffer<PortIndex>& b_route() const {
    return b_route_;
  }

  void reset();

 private:
  /// Picks the next port among those with a pending request at the heads
  /// of `chans`, in round-robin order from `rr`.
  std::optional<PortIndex> pick(
      std::vector<TimingChannel<AddrReq>*>& chans, PortIndex& rr) const;

  std::uint32_t num_ports_;
  bool order_based_;
  PortIndex rr_ar_ = 0;
  PortIndex rr_aw_ = 0;
  RingBuffer<ReadRoute> read_route_;
  RingBuffer<ExbarWriteRoute> write_route_;
  RingBuffer<PortIndex> b_route_;
};

}  // namespace axihc
