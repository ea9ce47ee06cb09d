// Fault injector: a pass-through component spliced between a hardware
// accelerator's master port and the interconnect, able to misbehave on
// command.
//
// In the fault-free case it forwards one payload per channel per cycle
// (adding one cycle of latency per channel, like any registered stage).
// When a FaultSpec from its scenario is active it perturbs the traffic:
// stalls a channel's handshake, drops or delays W beats, truncates write
// bursts (spurious early WLAST), or corrupts the advertised burst length.
//
// The injector sits on the *master* side, so from the interconnect's point
// of view the port itself has gone bad — exactly the situation the
// HyperConnect's per-port protection unit must detect, drain, and decouple
// (tests/test_fault_injection.cpp drives the whole loop).
//
// Determinism: each injector derives its RNG from scenario.seed ^ port, so
// a scenario replays identically across runs and per-port fault streams are
// independent.
#pragma once

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "axi/axi.hpp"
#include "fault/scenario.hpp"
#include "sim/component.hpp"

namespace axihc {

/// Event counters of one injector (what it actually did, for assertions).
struct FaultInjectorStats {
  /// The seed this injector's RNG actually ran with (scenario.seed mixed
  /// with the port index). Recorded so any observed fault pattern — e.g. a
  /// failing campaign row — is replayable as a single axihc invocation with
  /// [system] fault_seed set to the scenario seed it derives from.
  std::uint64_t effective_seed = 0;
  std::uint64_t ar_stalled = 0;  // cycles an AR forward was suppressed
  std::uint64_t aw_stalled = 0;
  std::uint64_t w_stalled = 0;
  std::uint64_t r_stalled = 0;
  std::uint64_t b_stalled = 0;
  std::uint64_t w_dropped = 0;       // beats lost
  std::uint64_t w_delay_cycles = 0;  // extra cycles W beats were held
  std::uint64_t bursts_truncated = 0;
  std::uint64_t lens_corrupted = 0;
};

class FaultInjector final : public Component {
 public:
  /// Forwards between `ha_side` (the accelerator masters this link) and
  /// `bus_side` (connected to the interconnect port), applying the faults
  /// of `scenario` whose `port` field equals `port`.
  FaultInjector(std::string name, AxiLink& ha_side, AxiLink& bus_side,
                const FaultScenario& scenario, PortIndex port);

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  [[nodiscard]] const FaultInjectorStats& stats() const { return stats_; }
  [[nodiscard]] PortIndex port() const { return port_; }

  void append_digest(StateDigest& d) const override;

 private:
  /// Tracks one forwarded write burst so W faults can be applied per burst.
  struct WBurst {
    BeatCount beats_seen = 0;      // upstream beats consumed so far
    BeatCount truncate_after = 0;  // 0 = no truncation for this burst
    bool swallowing = false;       // past the forced WLAST: eat the rest
  };

  [[nodiscard]] bool stalled(FaultKind kind, Cycle now) const;
  /// First cycle after `now` at which a `kind` window opens or closes, or
  /// kNoCycle.
  [[nodiscard]] Cycle next_edge(FaultKind kind, Cycle now) const;
  /// Lazy catch-up of `skipped` ticks, all in the fault-window state of
  /// cycle `last`: stalled channels count them, a delay_w hold counts down.
  void catch_up(Cycle skipped, Cycle last);
  /// First active spec of `kind` this cycle, or nullptr.
  [[nodiscard]] const FaultSpec* active_spec(FaultKind kind, Cycle now) const;
  [[nodiscard]] bool chance(double probability);

  void forward_ar(Cycle now);
  void forward_aw(Cycle now);
  void forward_w(Cycle now);
  void forward_r(Cycle now);
  void forward_b(Cycle now);

  AxiLink& ha_;
  AxiLink& bus_;
  std::vector<FaultSpec> faults_;  // specs for this port only
  PortIndex port_;
  std::uint64_t seed_;
  std::mt19937_64 rng_;

  std::deque<WBurst> w_bursts_;  // one per forwarded AW with W data pending
  Cycle w_hold_left_ = 0;        // kDelayW: cycles the front W beat waits
  Cycle next_tick_ = 0;          // a later tick catches up the skipped ones

  FaultInjectorStats stats_;
};

}  // namespace axihc
