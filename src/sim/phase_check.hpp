// Phase-race detector for the two-phase channel semantics (the runtime
// half of the static checks; see docs/STATIC_ANALYSIS.md).
//
// The kernel's bit-identity guarantees (tick-order independence, the
// fast-forward) rest on channel state moving strictly in two phases: tick()
// stages pushes and consumes previously-committed elements, and the
// kernel's commit phase alone makes staged data visible. A violation
// silently makes results depend on tick order with no diagnostic; this
// checker turns the contract into a machine-checked one.
//
// Instrumentation is compiled in only with the AXIHC_PHASE_CHECK CMake
// option (the default build carries zero per-access overhead; see
// docs/STATIC_ANALYSIS.md). When compiled in, it is armed at run time with
// PhaseCheck::arm(true); the Simulator then stamps the kernel phase and the
// currently-ticking component, and every TimingChannel access flags
// two-phase violations: a mid-compute commit() (staged data made visible in
// the same cycle), a same-cycle read of freshly-committed state, or a read
// or push during the commit phase.
//
// Threading: the phase stamp is a process-wide atomic and the current
// component is thread-local; tests arm one simulation at a time
// (tests/test_phase_check.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace axihc {

class Component;

/// True when the build carries the channel instrumentation
/// (-DAXIHC_PHASE_CHECK=ON). The phase-race tests skip when false.
#ifdef AXIHC_PHASE_CHECK
inline constexpr bool kPhaseCheckAvailable = true;
#else
inline constexpr bool kPhaseCheckAvailable = false;
#endif

/// Where the engine currently is within a cycle. kOutside covers setup,
/// reset and inter-cycle code, where channel manipulation is unrestricted.
enum class EnginePhase : std::uint8_t { kOutside, kCompute, kCommit };

/// One detected two-phase violation.
struct PhaseViolation {
  std::string channel;
  std::string component;  // empty when the access came from outside a tick
  std::string what;
  Cycle epoch = 0;  // Simulator epoch (monotone per-cycle stamp)
};

/// Process-wide detector state. All members are static: the Simulator and
/// the channels need to reach it without plumbing a context through every
/// access site, and one process hosts one checked simulation at a time
/// (parallel sweeps run with the checker disarmed).
class PhaseCheck {
 public:
  /// Master switch. Arming clears previously recorded violations.
  static void arm(bool on);
  [[nodiscard]] static bool armed();

  /// Kernel phase stamp (Simulator only).
  static void set_phase(EnginePhase phase);
  [[nodiscard]] static EnginePhase phase();

  /// Currently-ticking component (Simulator only; thread-local).
  static void set_current(const Component* component);
  [[nodiscard]] static const Component* current();

  /// Appends a violation (channel instrumentation only).
  static void record(const std::string& channel, const std::string& what,
                     Cycle epoch);

  [[nodiscard]] static std::size_t violation_count();

  /// Returns and clears the recorded violations.
  [[nodiscard]] static std::vector<PhaseViolation> drain();

  /// Disarms and clears all state (test isolation).
  static void reset();
};

}  // namespace axihc
