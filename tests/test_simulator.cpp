// Simulator determinism and lifecycle tests.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/parallel_jobs.hpp"
#include "sim/trace.hpp"

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
// Job-level fan-out (sweeps, campaigns).

TEST(ParallelJobs, RunsEveryJobOnceInJobOrder) {
  constexpr std::size_t kJobs = 64;
  for (const char* threads : {"1", "4"}) {
    ::setenv("AXIHC_BENCH_THREADS", threads, 1);
    std::vector<std::atomic<int>> runs(kJobs);
    std::mutex mu;
    std::set<std::thread::id> workers;
    std::vector<std::function<std::size_t()>> jobs;
    for (std::size_t i = 0; i < kJobs; ++i) {
      jobs.push_back([&, i] {
        runs[i].fetch_add(1);
        {
          const std::lock_guard lock(mu);
          workers.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return i * i;
      });
    }
    const std::vector<std::size_t> results =
        run_parallel_jobs<std::size_t>(std::move(jobs));
    ASSERT_EQ(results.size(), kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "job " << i << " at " << threads;
      EXPECT_EQ(results[i], i * i) << "job " << i << " at " << threads;
    }
    EXPECT_LE(workers.size(), static_cast<std::size_t>(std::atoi(threads)));
  }
  ::unsetenv("AXIHC_BENCH_THREADS");
}

TEST(ParallelJobs, NestedCallRunsInline) {
  // A fan-out inside a job runs on that job's thread: nested parallelism
  // never oversubscribes.
  ::setenv("AXIHC_BENCH_THREADS", "4", 1);
  std::vector<std::function<int()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([] {
      const std::thread::id self = std::this_thread::get_id();
      std::vector<std::function<int()>> inner(
          8, [self] { return std::this_thread::get_id() == self ? 1 : 0; });
      const std::vector<int> same = run_parallel_jobs<int>(std::move(inner));
      return std::accumulate(same.begin(), same.end(), 0);
    });
  }
  for (const int on_caller : run_parallel_jobs<int>(std::move(outer))) {
    EXPECT_EQ(on_caller, 8);
  }
  ::unsetenv("AXIHC_BENCH_THREADS");
}

TEST(ParallelJobs, ThrowingJobRethrowsAfterEveryOtherJobFinished) {
  // Jobs 2 and 5 throw; job 5 throws first, but the lowest-indexed failure
  // is the one rethrown, and only once every other job has finished. The
  // consumer stops before the failed index.
  constexpr int kJobs = 16;
  ::setenv("AXIHC_BENCH_THREADS", "4", 1);
  std::atomic<int> finished{0};
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back([&finished, i]() -> int {
      if (i == 5) throw std::runtime_error("job 5 failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 2 ? 20 : 2));
      if (i == 2) throw std::runtime_error("job 2 failed");
      finished.fetch_add(1);
      return i;
    });
  }
  std::vector<std::size_t> consumed;
  try {
    (void)run_parallel_jobs<int>(
        std::move(jobs),
        [&consumed](std::size_t i, int&) { consumed.push_back(i); });
    FAIL() << "expected the job's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 2 failed");
    EXPECT_EQ(finished.load(), kJobs - 2);
  }
  EXPECT_EQ(consumed, (std::vector<std::size_t>{0, 1}));
  ::unsetenv("AXIHC_BENCH_THREADS");
}

TEST(ParallelJobs, ConsumerSeesJobOrderWhenJobZeroIsSlowest) {
  constexpr std::size_t kJobs = 12;
  for (const char* threads : {"1", "4"}) {
    ::setenv("AXIHC_BENCH_THREADS", threads, 1);
    std::vector<std::function<std::size_t()>> jobs;
    for (std::size_t i = 0; i < kJobs; ++i) {
      jobs.push_back([i] {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return i;
      });
    }
    std::vector<std::size_t> seen;
    (void)run_parallel_jobs<std::size_t>(
        std::move(jobs), [&seen](std::size_t i, std::size_t& result) {
          EXPECT_EQ(result, i);
          seen.push_back(i);
        });
    std::vector<std::size_t> expected(kJobs);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(seen, expected) << "at " << threads;
  }
  ::unsetenv("AXIHC_BENCH_THREADS");
}

}  // namespace
}  // namespace axihc
