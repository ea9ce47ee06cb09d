// Simulator determinism and lifecycle tests.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "sim/trace.hpp"
#include "sim/worker_pool.hpp"

namespace axihc {
namespace {

/// Produces one integer per cycle into a channel.
class Producer final : public Component {
 public:
  Producer(std::string name, TimingChannel<int>& out)
      : Component(std::move(name)), out_(out) {}
  void tick(Cycle) override {
    if (out_.can_push()) out_.push(next_++);
  }
  void reset() override { next_ = 0; }

 private:
  TimingChannel<int>& out_;
  int next_ = 0;
};

/// Consumes integers and records the cycle each arrived.
class Consumer final : public Component {
 public:
  Consumer(std::string name, TimingChannel<int>& in)
      : Component(std::move(name)), in_(in) {}
  void tick(Cycle now) override {
    if (in_.can_pop()) received_.push_back({now, in_.pop()});
  }
  void reset() override { received_.clear(); }

  std::vector<std::pair<Cycle, int>> received_;

 private:
  TimingChannel<int>& in_;
};

TEST(Simulator, TimeAdvances) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  sim.run(10);
  EXPECT_EQ(sim.now(), 10u);
  sim.step();
  EXPECT_EQ(sim.now(), 11u);
}

TEST(Simulator, ProducerConsumerPipelineLatency) {
  Simulator sim;
  TimingChannel<int> ch("ch", 4);
  Producer p("p", ch);
  Consumer c("c", ch);
  sim.add(ch);
  sim.add(p);
  sim.add(c);

  sim.run(5);
  // Item 0 pushed at cycle 0 is consumable at cycle 1.
  ASSERT_FALSE(c.received_.empty());
  EXPECT_EQ(c.received_[0], (std::pair<Cycle, int>{1, 0}));
}

TEST(Simulator, TickOrderDoesNotChangeBehaviour) {
  // Same system, components registered in opposite orders: identical result.
  auto run_once = [](bool consumer_first) {
    Simulator sim;
    TimingChannel<int> ch("ch", 2);
    Producer p("p", ch);
    Consumer c("c", ch);
    sim.add(ch);
    if (consumer_first) {
      sim.add(c);
      sim.add(p);
    } else {
      sim.add(p);
      sim.add(c);
    }
    sim.run(50);
    return c.received_;
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

TEST(Simulator, RunUntilStopsOnPredicate) {
  Simulator sim;
  TimingChannel<int> ch("ch", 4);
  Producer p("p", ch);
  Consumer c("c", ch);
  sim.add(ch);
  sim.add(p);
  sim.add(c);

  const bool fired =
      sim.run_until([&] { return c.received_.size() >= 3; }, 1000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(c.received_.size(), 3u);
}

TEST(Simulator, RunUntilTimesOut) {
  Simulator sim;
  const bool fired = sim.run_until([] { return false; }, 25);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 25u);
}

TEST(Simulator, ResetRestartsEverything) {
  Simulator sim;
  TimingChannel<int> ch("ch", 4);
  Producer p("p", ch);
  Consumer c("c", ch);
  sim.add(ch);
  sim.add(p);
  sim.add(c);

  sim.run(20);
  ASSERT_FALSE(c.received_.empty());
  sim.reset();
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(c.received_.empty());
  sim.run(5);
  // Behaviour after reset matches a fresh run.
  ASSERT_FALSE(c.received_.empty());
  EXPECT_EQ(c.received_[0], (std::pair<Cycle, int>{1, 0}));
}

TEST(EventTrace, RecordsOnlyWhenEnabled) {
  EventTrace trace;
  trace.record(1, "a", "x");
  EXPECT_TRUE(trace.events().empty());
  trace.enable(true);
  trace.record(2, "a", "x");
  trace.record(3, "a", "y");
  trace.record(4, "a", "x");
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.first("a", "x"), 2u);
  EXPECT_EQ(trace.first("a", "z"), kNoCycle);
  EXPECT_EQ(trace.count("a", "x"), 2u);
}

// ---------------------------------------------------------------------------
// Worker pool sanity (job-level fan-out: sweeps, campaigns).

TEST(WorkerPoolTest, RunsEachIndexExactlyOnce) {
  WorkerPool& pool = WorkerPool::shared();
  const unsigned n = std::min(4u, pool.max_participants());
  std::vector<std::atomic<int>> counts(n);
  for (int round = 0; round < 100; ++round) {
    pool.run_tasks(n, [&](unsigned index) {
      counts[index].fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (unsigned i = 0; i < n; ++i) {
    EXPECT_EQ(counts[i].load(), 100) << "index " << i;
  }
}

TEST(WorkerPoolTest, NestedDispatchDegradesToInline) {
  // A pool task dispatching again must run its tasks inline (no deadlock,
  // no oversubscription) — this is what caps nested fan-out inside a job.
  WorkerPool& pool = WorkerPool::shared();
  std::atomic<int> total{0};
  pool.run_tasks(2, [&](unsigned) {
    pool.run_tasks(4,
                   [&](unsigned) { total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(total.load(), 8);
}

}  // namespace
}  // namespace axihc
