#include "sim/phase_check.hpp"

#include <atomic>
#include <mutex>

#include "sim/channel.hpp"
#include "sim/component.hpp"

namespace axihc {

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint8_t> g_phase{
    static_cast<std::uint8_t>(EnginePhase::kOutside)};
thread_local const Component* t_current = nullptr;

std::mutex g_violations_mutex;
std::vector<PhaseViolation> g_violations;

}  // namespace

void PhaseCheck::arm(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(g_violations_mutex);
    g_violations.clear();
  }
  g_armed.store(on, std::memory_order_relaxed);
}

bool PhaseCheck::armed() { return g_armed.load(std::memory_order_relaxed); }

void PhaseCheck::set_phase(EnginePhase phase) {
  g_phase.store(static_cast<std::uint8_t>(phase), std::memory_order_release);
}

EnginePhase PhaseCheck::phase() {
  return static_cast<EnginePhase>(g_phase.load(std::memory_order_acquire));
}

void PhaseCheck::set_current(const Component* component) {
  t_current = component;
}

const Component* PhaseCheck::current() { return t_current; }

void PhaseCheck::record(const std::string& channel, const std::string& what,
                        Cycle epoch) {
  PhaseViolation v;
  v.channel = channel;
  v.component = t_current != nullptr ? t_current->name() : std::string{};
  v.what = what;
  v.epoch = epoch;
  std::lock_guard<std::mutex> lock(g_violations_mutex);
  g_violations.push_back(std::move(v));
}

std::size_t PhaseCheck::violation_count() {
  std::lock_guard<std::mutex> lock(g_violations_mutex);
  return g_violations.size();
}

std::vector<PhaseViolation> PhaseCheck::drain() {
  std::lock_guard<std::mutex> lock(g_violations_mutex);
  std::vector<PhaseViolation> out;
  out.swap(g_violations);
  return out;
}

void PhaseCheck::reset() {
  g_armed.store(false, std::memory_order_relaxed);
  g_phase.store(static_cast<std::uint8_t>(EnginePhase::kOutside),
                std::memory_order_relaxed);
  t_current = nullptr;
  std::lock_guard<std::mutex> lock(g_violations_mutex);
  g_violations.clear();
}

#ifdef AXIHC_PHASE_CHECK

// --- ChannelBase instrumentation (declared in sim/channel.hpp) ----------
//
// The phase rules live here, out of the header, so the hot channel methods
// only pay an outlined call (and only in instrumented builds; the default
// build compiles the hooks away entirely).

void ChannelBase::ledger_on_read() const {
  if (!PhaseCheck::armed()) return;
  const EnginePhase p = PhaseCheck::phase();
  const std::uint64_t epoch = epoch_ != nullptr ? *epoch_ : 0;
  if (p == EnginePhase::kCommit) {
    PhaseCheck::record(name(),
                       "committed-state read during the engine commit phase",
                       epoch);
  } else if (p == EnginePhase::kCompute && epoch != 0 &&
             ledger_commit_epoch_ == epoch) {
    PhaseCheck::record(
        name(),
        "same-cycle read-after-commit: observes data staged this cycle",
        epoch);
  }
}

void ChannelBase::ledger_on_write() const {
  if (!PhaseCheck::armed()) return;
  if (PhaseCheck::phase() == EnginePhase::kCommit) {
    PhaseCheck::record(name(), "push during the engine commit phase",
                       epoch_ != nullptr ? *epoch_ : 0);
  }
}

void ChannelBase::ledger_on_commit() const {
  if (!PhaseCheck::armed()) return;
  const std::uint64_t epoch = epoch_ != nullptr ? *epoch_ : 0;
  ledger_commit_epoch_ = epoch;
  if (PhaseCheck::phase() == EnginePhase::kCompute) {
    PhaseCheck::record(
        name(),
        "mid-compute commit: staged data made visible in the same cycle",
        epoch);
  }
}

#endif  // AXIHC_PHASE_CHECK

}  // namespace axihc
