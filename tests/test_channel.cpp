// Unit tests for TimingChannel: the two-phase (stage/commit) semantics that
// give every hop exactly one cycle of latency and make the simulation
// independent of component tick order.
#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace axihc {
namespace {

TEST(TimingChannel, PushNotVisibleUntilCommit) {
  TimingChannel<int> ch("ch", 4);
  ch.commit();  // snapshot empty state
  ch.push(1);
  EXPECT_FALSE(ch.can_pop());  // staged, not committed
  ch.commit();
  ASSERT_TRUE(ch.can_pop());
  EXPECT_EQ(ch.front(), 1);
}

TEST(TimingChannel, OneCycleLatencyPerHop) {
  TimingChannel<int> ch("ch", 4);
  ch.commit();
  // Cycle 0: producer pushes.
  ch.push(7);
  ch.commit();
  // Cycle 1: consumer sees it.
  EXPECT_TRUE(ch.can_pop());
  EXPECT_EQ(ch.pop(), 7);
}

TEST(TimingChannel, FifoOrderAcrossCycles) {
  TimingChannel<int> ch("ch", 8);
  ch.commit();
  ch.push(1);
  ch.push(2);
  ch.commit();
  ch.push(3);
  ch.commit();
  EXPECT_EQ(ch.pop(), 1);
  EXPECT_EQ(ch.pop(), 2);
  EXPECT_EQ(ch.pop(), 3);
}

TEST(TimingChannel, BackpressureAtCapacity) {
  TimingChannel<int> ch("ch", 2);
  ch.commit();
  ch.push(1);
  ch.push(2);
  EXPECT_FALSE(ch.can_push());
  EXPECT_THROW(ch.push(3), ModelError);
}

TEST(TimingChannel, CanPushIgnoresSameCyclePops) {
  // A pop this cycle must NOT free space for a push this cycle: occupancy is
  // snapshotted at cycle start. This is what makes tick order irrelevant.
  TimingChannel<int> ch("ch", 1);
  ch.commit();
  ch.push(1);
  ch.commit();
  // Cycle start: channel full (occupancy 1, capacity 1).
  EXPECT_FALSE(ch.can_push());
  EXPECT_EQ(ch.pop(), 1);
  EXPECT_FALSE(ch.can_push()) << "pop freed capacity mid-cycle";
  ch.commit();
  EXPECT_TRUE(ch.can_push());
}

TEST(TimingChannel, PopOnEmptyThrows) {
  TimingChannel<int> ch("ch", 2);
  ch.commit();
  EXPECT_THROW(ch.pop(), ModelError);
  EXPECT_THROW(static_cast<void>(ch.front()), ModelError);
}

TEST(TimingChannel, CountsTraffic) {
  TimingChannel<int> ch("ch", 4);
  ch.commit();
  ch.push(1);
  ch.push(2);
  ch.commit();
  ch.pop();
  EXPECT_EQ(ch.total_pushes(), 2u);
  EXPECT_EQ(ch.total_pops(), 1u);
}

TEST(TimingChannel, ResetDropsEverything) {
  TimingChannel<int> ch("ch", 4);
  ch.commit();
  ch.push(1);
  ch.commit();
  ch.push(2);  // staged
  ch.reset();
  ch.commit();
  EXPECT_FALSE(ch.can_pop());
  EXPECT_EQ(ch.total_pushes(), 0u);
}

TEST(TimingChannel, ClearContentsDropsQueuedAndStaged) {
  TimingChannel<int> ch("ch", 4);
  ch.commit();
  ch.push(1);
  ch.push(2);
  ch.commit();
  ch.push(3);  // staged
  ch.clear_contents();
  EXPECT_FALSE(ch.can_pop());
  EXPECT_EQ(ch.size(), 0u);
  ch.commit();
  EXPECT_FALSE(ch.can_pop()) << "staged element survived the flush";
  EXPECT_TRUE(ch.can_push());
}

TEST(TimingChannel, ClearContentsKeepsTrafficCountersResetZeroesThem) {
  // A flush (eFIFO decoupling) drops the payloads but the port's lifetime
  // traffic counters keep counting; only a hardware reset zeroes them.
  TimingChannel<int> ch("ch", 4);
  ch.commit();
  ch.push(1);
  ch.push(2);
  ch.commit();
  ch.pop();
  ch.clear_contents();
  EXPECT_EQ(ch.total_pushes(), 2u);
  EXPECT_EQ(ch.total_pops(), 1u);

  // The flushed channel is immediately usable with full capacity.
  ch.commit();
  ch.push(5);
  ch.commit();
  EXPECT_EQ(ch.pop(), 5);
  EXPECT_EQ(ch.total_pushes(), 3u);
  EXPECT_EQ(ch.total_pops(), 2u);

  ch.reset();
  EXPECT_EQ(ch.total_pushes(), 0u);
  EXPECT_EQ(ch.total_pops(), 0u);
  EXPECT_FALSE(ch.can_pop());
}

TEST(TimingChannel, ClearContentsRestoresPushHeadroomImmediately) {
  // Unlike a pop (whose freed slot only shows after the commit boundary),
  // a flush grounds the whole port: the occupancy snapshot is flushed with
  // the contents, so producers see full headroom in the same cycle.
  TimingChannel<int> ch("ch", 2);
  ch.commit();
  ch.push(1);
  ch.push(2);
  ch.commit();
  EXPECT_FALSE(ch.can_push());
  ch.clear_contents();
  EXPECT_TRUE(ch.can_push());
  ch.push(9);
  ch.commit();
  EXPECT_EQ(ch.pop(), 9);
}

TEST(TimingChannel, ThroughputFullRateNeedsDepthTwo) {
  // Because readiness is snapshotted at cycle start (registered-ready, as in
  // a hardware register slice), a depth-1 channel alternates push/pop and
  // sustains only half rate; a depth-2 channel (skid buffer) sustains one
  // item per cycle.
  auto measure = [](std::size_t depth) {
    TimingChannel<int> ch("ch", depth);
    ch.commit();
    int received = 0;
    int sent = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
      if (ch.can_pop()) {
        EXPECT_EQ(ch.pop(), received);
        ++received;
      }
      if (ch.can_push()) ch.push(sent++);
      ch.commit();
    }
    return received;
  };
  EXPECT_EQ(measure(1), 50);
  EXPECT_GE(measure(2), 98);
}

// TimingChannel is final; a minimal ChannelBase subclass exposes mark_dirty
// and counts commit() calls so the dirty-list enqueue discipline itself can
// be observed.
class CommitCountingChannel final : public ChannelBase {
 public:
  explicit CommitCountingChannel(std::string name)
      : ChannelBase(std::move(name)) {}

  void touch() { mark_dirty(); }
  void commit() override {
    ++commits_;
    clear_dirty();
  }
  void reset() override {}
  [[nodiscard]] int commits() const { return commits_; }

 private:
  int commits_ = 0;
};

TEST(DirtyList, MidCycleManualCommitDoesNotEnqueueTwice) {
  // A touch enqueues the channel on the simulator's commit list. A mid-cycle
  // manual commit() clears the dirty flag, so a second touch in the same
  // cycle would re-enqueue under a dirty-flag-only guard — and the end of
  // cycle would then commit (and re-snapshot) the channel twice. The epoch
  // stamp suppresses the duplicate: exactly one end-of-cycle commit.
  Simulator sim;
  CommitCountingChannel ch("ch");
  sim.add(ch);
  sim.reset();  // commits once to snapshot the empty state
  const int base = ch.commits();

  ch.touch();
  ch.commit();  // mid-cycle manual commit
  ch.touch();   // same cycle: dirty again, but already enqueued
  sim.step();
  EXPECT_EQ(ch.commits(), base + 2)
      << "end-of-cycle must commit exactly once";
}

TEST(DirtyList, TouchInLaterCycleReenqueues) {
  // The epoch stamp only suppresses duplicates *within* a cycle: a touch in
  // the next cycle must enqueue again.
  Simulator sim;
  CommitCountingChannel ch("ch");
  sim.add(ch);
  sim.reset();  // commits once to snapshot the empty state
  const int base = ch.commits();

  ch.touch();
  sim.step();
  EXPECT_EQ(ch.commits(), base + 1);
  ch.touch();
  sim.step();
  EXPECT_EQ(ch.commits(), base + 2);
  sim.step();  // quiet cycle: no touch, no commit
  EXPECT_EQ(ch.commits(), base + 2);
}

TEST(DirtyList, StandaloneChannelKeepsFlagLocally) {
  // Without a simulator there is no dirty list; mark_dirty must still work
  // (the flag is purely local) and manual commits behave as before.
  CommitCountingChannel ch("ch");
  ch.touch();
  ch.touch();
  ch.commit();
  ch.touch();
  ch.commit();
  EXPECT_EQ(ch.commits(), 2);
}

TEST(DirtyList, PushBeforeRegistrationCommitsAtFirstStep) {
  // A push staged while the channel is still standalone (system setup before
  // Simulator::add) must not be lost: registration enqueues the dirty
  // channel, so the first cycle's commit makes the element visible.
  TimingChannel<int> ch("ch", 2);
  ch.push(5);
  Simulator sim;
  sim.add(ch);
  EXPECT_FALSE(ch.can_pop());
  sim.step();
  ASSERT_TRUE(ch.can_pop());
  EXPECT_EQ(ch.pop(), 5);
}

TEST(DirtyList, LateRegisteredChannelCommitsAndDigestsLikeEarlyOne) {
  // A channel added after the simulator has already stepped must be
  // committed and digested exactly like one registered up front.
  const auto run = [](bool late) {
    Simulator sim;
    TimingChannel<int> a("a", 2);
    TimingChannel<int> b("b", 2);
    sim.add(a);
    if (!late) sim.add(b);
    sim.reset();
    for (int i = 0; i < 3; ++i) sim.step();
    if (late) sim.add(b);
    b.push(7);
    b.push(8);
    EXPECT_FALSE(b.can_push());
    sim.step();
    EXPECT_TRUE(b.can_pop());
    EXPECT_EQ(b.pop(), 7);
    EXPECT_FALSE(b.can_push());  // the pop frees space only next cycle
    sim.step();
    EXPECT_TRUE(b.can_push());
    EXPECT_EQ(b.size(), 1u);
    return sim.state_digest();
  };
  EXPECT_EQ(run(/*late=*/false), run(/*late=*/true));
}

}  // namespace
}  // namespace axihc
