// eFIFO — efficient first-in-first-out queuing module (§V-B).
//
// Each HA-facing slave port of the HyperConnect is an eFIFO: five
// independent proactive (always-ready) circular-buffer queues, one per AXI
// channel, each adding exactly one cycle of latency. In this model the five
// queues are the TimingChannels of the port's AxiLink (a TimingChannel *is*
// a one-cycle circular-buffer queue); the Efifo class adds the part that is
// specific to the paper: the decoupling mechanism.
//
// When a port is decoupled, the AXI handshake signals are held low and all
// other signals grounded, completely disconnecting the HA (used by the
// hypervisor to isolate misbehaving/faulty HAs and during dynamic partial
// reconfiguration). Here that means: the interconnect side stops popping
// AR/AW/W (the HA back-pressures and stalls) and stops pushing R/B
// (responses for a decoupled port are dropped, as they would be on a
// grounded wire).
#pragma once

#include "axi/axi.hpp"

namespace axihc {

class Efifo {
 public:
  /// Wraps the five queues of `link` (borrowed; must outlive the Efifo).
  explicit Efifo(AxiLink& link) : link_(&link) {}

  [[nodiscard]] bool coupled() const { return coupled_; }
  void set_coupled(bool on) { coupled_ = on; }

  /// Fault latch set by the protection unit on a protocol timeout or a
  /// malformed burst. A faulted port behaves like a decoupled one on the
  /// request side (inputs grounded, responses dropped) but its R/B queues
  /// are *not* continuously flushed, so the synthesized SLVERR completions
  /// stay deliverable to the (misbehaving) HA. Cleared by a hypervisor
  /// write to the port's FAULT_STATUS register.
  [[nodiscard]] bool faulted() const { return faulted_; }
  void set_faulted(bool on) { faulted_ = on; }

  /// Port carries traffic: coupled and not latched as faulted.
  [[nodiscard]] bool active() const { return coupled_ && !faulted_; }

  // --- slave side as seen by the interconnect logic --------------------
  [[nodiscard]] bool ar_available() const {
    return active() && link_->ar.can_pop();
  }
  AddrReq pop_ar() { return link_->ar.pop(); }

  [[nodiscard]] bool aw_available() const {
    return active() && link_->aw.can_pop();
  }
  AddrReq pop_aw() { return link_->aw.pop(); }

  [[nodiscard]] bool w_available() const {
    return active() && link_->w.can_pop();
  }
  WBeat pop_w() { return link_->w.pop(); }

  [[nodiscard]] bool can_push_r() const {
    return active() && link_->r.can_push();
  }
  void push_r(const RBeat& beat) { link_->r.push(beat); }

  [[nodiscard]] bool can_push_b() const {
    return active() && link_->b.can_push();
  }
  void push_b(const BResp& resp) { link_->b.push(resp); }

  /// Total occupancy across the five channel queues (the paper's eFIFO
  /// fill level, exported as the `efifo_level` gauge). Each size() is a
  /// read of the channel's committed counter, so sampling this is pure
  /// reads.
  [[nodiscard]] std::size_t level() const {
    return link_->ar.size() + link_->aw.size() + link_->w.size() +
           link_->r.size() + link_->b.size();
  }

  [[nodiscard]] AxiLink& link() { return *link_; }

 private:
  AxiLink* link_;
  bool coupled_ = true;
  bool faulted_ = false;
};

}  // namespace axihc
