// AMBA AXI channel payloads and link bundles.
//
// AXI defines five independent channels (§II of the paper): AR (read
// address), R (read data), AW (write address), W (write data), B (write
// response). Each channel is modelled as a TimingChannel carrying one of the
// payload structs below; a full master/slave connection is an AxiLink
// bundling the five.
//
// In-order model: the paper's target platforms serve transactions in order at
// the memory controller and route R/W data in AR/AW grant order. All
// components in this library preserve that ordering, and an AxiMonitor
// watching a link checks it.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"

namespace axihc {

/// AXI burst type (AxBURST).
enum class BurstType : std::uint8_t { kFixed, kIncr, kWrap };

/// AXI response code (xRESP).
enum class Resp : std::uint8_t { kOkay, kExOkay, kSlvErr, kDecErr };

/// True for the two error responses (SLVERR/DECERR).
[[nodiscard]] constexpr bool is_error(Resp r) {
  return r == Resp::kSlvErr || r == Resp::kDecErr;
}

/// Merge rule for responses of sub-bursts that equalization re-joins into
/// one HA-visible transaction: keep the worst. The enum's numeric order
/// happens to be the severity order (OKAY < EXOKAY < SLVERR < DECERR);
/// EXOKAY never occurs here because the model carries no exclusive accesses.
[[nodiscard]] constexpr Resp worst_resp(Resp a, Resp b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

/// Payload of the AR and AW channels.
struct AddrReq {
  TxnId id = 0;
  Addr addr = 0;
  /// Number of data beats (AxLEN + 1); AXI4 INCR allows 1..256.
  BeatCount beats = 1;
  /// Bytes per beat = 1 << size_log2 (AxSIZE). 3 → 64-bit data bus.
  std::uint8_t size_log2 = 3;
  BurstType burst = BurstType::kIncr;
  /// Cycle the originating master issued the request (latency probes).
  Cycle issued_at = kNoCycle;
  /// Opaque bookkeeping field for interconnect models (e.g. sub-burst
  /// sequence numbers created by the Transaction Supervisor).
  std::uint64_t tag = 0;
};

/// Payload of the R channel: one read-data beat.
struct RBeat {
  TxnId id = 0;
  std::uint64_t data = 0;
  bool last = false;
  Resp resp = Resp::kOkay;
};

/// Payload of the W channel: one write-data beat. AXI4 has no WID; beats
/// follow AW order.
struct WBeat {
  std::uint64_t data = 0;
  /// Byte-enable strobe (bit per byte of the beat).
  std::uint8_t strb = 0xff;
  bool last = false;
};

/// Payload of the B channel: write acknowledgement.
struct BResp {
  TxnId id = 0;
  Resp resp = Resp::kOkay;
};

/// State-digest folds for the channel payloads (field-wise, never raw struct
/// bytes — padding is indeterminate). Found by ADL from
/// TimingChannel::append_digest.
inline void append_digest(StateDigest& d, const AddrReq& req) {
  d.mix(req.id);
  d.mix(req.addr);
  d.mix(req.beats);
  d.mix(static_cast<std::uint64_t>(req.size_log2) |
        (static_cast<std::uint64_t>(req.burst) << 8));
  d.mix(static_cast<std::uint64_t>(req.issued_at));
  d.mix(req.tag);
}

inline void append_digest(StateDigest& d, const RBeat& beat) {
  d.mix(beat.id);
  d.mix(beat.data);
  d.mix(static_cast<std::uint64_t>(beat.last) |
        (static_cast<std::uint64_t>(beat.resp) << 8));
}

inline void append_digest(StateDigest& d, const WBeat& beat) {
  d.mix(beat.data);
  d.mix(static_cast<std::uint64_t>(beat.strb) |
        (static_cast<std::uint64_t>(beat.last) << 8));
}

inline void append_digest(StateDigest& d, const BResp& resp) {
  d.mix(resp.id);
  d.mix(static_cast<std::uint64_t>(resp.resp));
}

/// Total bytes transferred by a burst.
[[nodiscard]] std::uint64_t burst_bytes(const AddrReq& req);

/// First byte address after the burst.
[[nodiscard]] Addr burst_end(const AddrReq& req);

/// True if an INCR burst crosses a 4 KiB boundary (forbidden by AXI).
[[nodiscard]] bool crosses_4k(const AddrReq& req);

/// FIFO depths of the five channels of a link.
struct AxiLinkConfig {
  std::size_t ar_depth = 4;
  std::size_t aw_depth = 4;
  std::size_t w_depth = 32;
  std::size_t r_depth = 32;
  std::size_t b_depth = 4;
};

/// A point-to-point AXI connection: five independent channels.
/// The master pushes AR/AW/W and pops R/B; the slave does the opposite.
class AxiLink {
 public:
  explicit AxiLink(const std::string& name, AxiLinkConfig cfg = {});

  /// Registers all five channels with `sim` for end-of-cycle commit.
  void register_with(Simulator& sim);

  [[nodiscard]] const std::string& name() const { return name_; }

  TimingChannel<AddrReq> ar;
  TimingChannel<RBeat> r;
  TimingChannel<AddrReq> aw;
  TimingChannel<WBeat> w;
  TimingChannel<BResp> b;

 private:
  std::string name_;
};

}  // namespace axihc
