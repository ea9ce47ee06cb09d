// The two-phase race detector (src/sim/phase_check.hpp): it must flag a
// component that breaks the channel discipline on purpose, stay silent on
// an honest one and when disarmed, and find no race in any shipped example.
//
// Every case needs the AXIHC_PHASE_CHECK instrumentation and skips in
// uninstrumented builds (the CI static-analysis job runs them for real).
#include "sim/phase_check.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/system_builder.hpp"
#include "sim/channel.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

// Disarms and clears the process-wide detector on both ends of a test, so
// armed cases cannot leak violations into each other.
struct PhaseCheckGuard {
  PhaseCheckGuard() { PhaseCheck::reset(); }
  ~PhaseCheckGuard() { PhaseCheck::reset(); }
};

/// The first few violations, one per line.
std::string describe(const std::vector<PhaseViolation>& violations) {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size() && i < 8; ++i) {
    const PhaseViolation& v = violations[i];
    os << v.channel << " (" << v.component << "): " << v.what << " at epoch "
       << v.epoch << "\n";
  }
  return os.str();
}

/// Honest producer: stages one push per cycle while there is room.
class HonestProducer : public Component {
 public:
  HonestProducer(std::string name, TimingChannel<int>& ch)
      : Component(std::move(name)), ch_(&ch) {}
  void tick(Cycle) override {
    if (ch_->can_push()) ch_->push(1);
  }

 private:
  TimingChannel<int>* ch_;
};

/// Breaks the two-phase discipline on purpose: commits its own channel
/// mid-tick and immediately consumes the freshly-committed element, so the
/// push, the visibility and the pop all land in one cycle.
class PhaseRacer : public Component {
 public:
  PhaseRacer(std::string name, TimingChannel<int>& ch)
      : Component(std::move(name)), ch_(&ch) {}
  void tick(Cycle) override {
    if (!ch_->can_push()) return;
    ch_->push(1);
    ch_->commit();                   // mid-compute commit
    if (ch_->can_pop()) ch_->pop();  // same-cycle read-after-commit
  }

 private:
  TimingChannel<int>* ch_;
};

TEST(PhaseRace, FlagsMidTickCommit) {
  if (!kPhaseCheckAvailable) GTEST_SKIP() << "needs -DAXIHC_PHASE_CHECK=ON";
  PhaseCheckGuard guard;
  Simulator sim;
  TimingChannel<int> ch("racer.ch", 4);
  sim.add(ch);
  PhaseRacer racer("racer", ch);
  sim.add(racer);

  PhaseCheck::arm(true);
  sim.run(3);

  EXPECT_GT(PhaseCheck::violation_count(), 0u);
  const std::vector<PhaseViolation> violations = PhaseCheck::drain();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().channel, "racer.ch");
  EXPECT_EQ(violations.front().component, "racer");
  EXPECT_EQ(PhaseCheck::violation_count(), 0u);  // drain clears
}

TEST(PhaseRace, HonestProducerRecordsNothing) {
  if (!kPhaseCheckAvailable) GTEST_SKIP() << "needs -DAXIHC_PHASE_CHECK=ON";
  PhaseCheckGuard guard;
  Simulator sim;
  TimingChannel<int> ch("clean.ch", 4);
  sim.add(ch);
  HonestProducer producer("producer", ch);
  sim.add(producer);

  PhaseCheck::arm(true);
  sim.run(10);

  EXPECT_EQ(PhaseCheck::violation_count(), 0u)
      << describe(PhaseCheck::drain());
}

TEST(PhaseRace, DisarmedRunRecordsNothing) {
  if (!kPhaseCheckAvailable) GTEST_SKIP() << "needs -DAXIHC_PHASE_CHECK=ON";
  PhaseCheckGuard guard;
  Simulator sim;
  TimingChannel<int> ch("disarmed.ch", 4);
  sim.add(ch);
  PhaseRacer racer("racer", ch);
  sim.add(racer);

  sim.run(3);  // never armed

  EXPECT_EQ(PhaseCheck::violation_count(), 0u);
}

TEST(PhaseRace, ExampleConfigsRunClean) {
  if (!kPhaseCheckAvailable) GTEST_SKIP() << "needs -DAXIHC_PHASE_CHECK=ON";
  std::size_t configs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(AXIHC_REPO_ROOT) + "/examples/configs")) {
    if (entry.path().extension() != ".ini") continue;
    SCOPED_TRACE(entry.path().filename().string());
    PhaseCheckGuard guard;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const auto system = build_system(text.str());
    PhaseCheck::arm(true);
    system->run(20000);
    EXPECT_EQ(PhaseCheck::violation_count(), 0u)
        << describe(PhaseCheck::drain());
    ++configs;
  }
  EXPECT_GE(configs, 5u);
}

}  // namespace
}  // namespace axihc
