// Process-wide persistent worker pool behind job-level fan-out
// (sim/parallel_jobs.hpp: sweeps, fault campaigns, bench grids), so nested
// parallelism is capped by one pool: a task already running inside the
// pool — or a second concurrent dispatcher — degrades to inline serial
// execution instead of oversubscribing the machine.
//
// Dispatch design:
//  * Each worker has its own cache-line-sized mailbox (a generation counter).
//    The dispatcher publishes the job, then bumps exactly the mailboxes of
//    the workers that participate in the round; workers never read shared
//    round state they were not signalled for, so a laggard from an earlier
//    round can neither tear a newer job description nor double-run an index.
//  * The caller participates as index 0, workers as 1..n-1 with a fixed
//    index → worker mapping (deterministic work assignment).
//  * Idle workers spin briefly, then yield, then sleep on a condition
//    variable — so an oversubscribed host (CI runners, 1-CPU containers)
//    and a pool idling between benchmark runs burn no CPU.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace axihc {

class WorkerPool {
 public:
  /// The lazily-created shared pool, sized for the host. Never destroyed
  /// before process exit (workers are joined by the static destructor).
  static WorkerPool& shared();

  explicit WorkerPool(unsigned worker_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Largest useful participant count (workers + the calling thread).
  [[nodiscard]] unsigned max_participants() const {
    return static_cast<unsigned>(slots_.size()) + 1;
  }

  /// Runs fn(0), ..., fn(participants-1), each exactly once, and returns
  /// when all have finished. fn(0) runs on the calling thread; fn(i) for
  /// i >= 1 runs on worker i-1. Degrades to an inline serial loop when the
  /// pool is busy (another dispatcher) or the caller is itself a pool task.
  template <typename Fn>
  void run_tasks(unsigned participants, Fn&& fn) {
    auto call = [](void* ctx, unsigned index) {
      (*static_cast<std::remove_reference_t<Fn>*>(ctx))(index);
    };
    run_tasks_impl(participants, call, &fn);
  }

 private:
  using Call = void (*)(void* ctx, unsigned index);

  struct alignas(64) WorkerSlot {
    std::atomic<std::uint64_t> work_gen{0};
    std::atomic<bool> sleeping{false};
  };

  void run_tasks_impl(unsigned participants, Call call, void* ctx);
  void worker_main(unsigned worker_index);

  std::vector<WorkerSlot> slots_;
  std::vector<std::thread> threads_;
  std::mutex run_mutex_;   // serializes dispatchers; try_lock → inline
  std::uint64_t generation_ = 0;  // dispatcher-side, under run_mutex_
  Call job_call_ = nullptr;       // published before mailbox bumps
  void* job_ctx_ = nullptr;
  std::atomic<unsigned> done_{0};
  std::atomic<bool> stop_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
};

}  // namespace axihc
