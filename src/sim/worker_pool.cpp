#include "sim/worker_pool.hpp"

#include <algorithm>

namespace axihc {

namespace {
thread_local bool tls_on_pool_thread = false;
}  // namespace

WorkerPool& WorkerPool::shared() {
  // Workers beyond the core count only add wake latency; 3 workers (4-way
  // rounds) is the largest count the tests and benches dispatch, so keep a
  // floor of 3 even on small hosts — sleeping workers cost nothing.
  static WorkerPool pool(
      std::max(3u, std::max(1u, std::thread::hardware_concurrency()) - 1u));
  return pool;
}

WorkerPool::WorkerPool(unsigned worker_threads) : slots_(worker_threads) {
  threads_.reserve(worker_threads);
  for (unsigned w = 0; w < worker_threads; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    wake_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
}

void WorkerPool::run_tasks_impl(unsigned participants, Call call, void* ctx) {
  unsigned n = std::min(participants, max_participants());
  if (n == 0) n = 1;
  if (n == 1 || tls_on_pool_thread || !run_mutex_.try_lock()) {
    // Nested or contended dispatch: run everything inline, serially. This is
    // the "one shared pool" cap — a fan-out inside a job does not multiply
    // the job's threads.
    for (unsigned i = 0; i < n; ++i) call(ctx, i);
    return;
  }
  std::lock_guard<std::mutex> run_guard(run_mutex_, std::adopt_lock);

  job_call_ = call;
  job_ctx_ = ctx;
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t gen = ++generation_;
  // Publish: the release store to each mailbox makes the job fields (and the
  // done_ reset) visible to exactly the workers signalled for this round.
  for (unsigned w = 0; w + 1 < n; ++w) {
    slots_[w].work_gen.store(gen, std::memory_order_seq_cst);
  }
  // Wake sleepers. The seq_cst mailbox store above and the worker's seq_cst
  // sleeping store below form the classic store/load handshake: either we
  // observe sleeping==true and notify, or the worker re-checks its mailbox
  // after registering and sees the new generation without a notify.
  bool any_sleeping = false;
  for (unsigned w = 0; w + 1 < n; ++w) {
    if (slots_[w].sleeping.load(std::memory_order_seq_cst)) {
      any_sleeping = true;
      break;
    }
  }
  if (any_sleeping) {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    wake_cv_.notify_all();
  }

  // The caller is participant 0. Mark it as a pool thread so nested
  // dispatches from inside the job degrade to inline execution.
  tls_on_pool_thread = true;
  call(ctx, 0);
  tls_on_pool_thread = false;

  const unsigned expected = n - 1;
  for (unsigned spins = 0;
       done_.load(std::memory_order_acquire) != expected; ++spins) {
    if (spins > 128) std::this_thread::yield();
  }
}

void WorkerPool::worker_main(unsigned worker_index) {
  WorkerSlot& slot = slots_[worker_index];
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for our mailbox to move: spin briefly (back-to-back rounds),
    // then yield (oversubscribed host), then sleep (idle pool).
    unsigned spins = 0;
    while (slot.work_gen.load(std::memory_order_acquire) == seen) {
      if (stop_.load(std::memory_order_acquire)) return;
      ++spins;
      if (spins < 256) {
        // tight spin
      } else if (spins < 4096) {
        std::this_thread::yield();
      } else {
        slot.sleeping.store(true, std::memory_order_seq_cst);
        {
          std::unique_lock<std::mutex> lk(wake_mutex_);
          wake_cv_.wait(lk, [&] {
            return stop_.load(std::memory_order_acquire) ||
                   slot.work_gen.load(std::memory_order_acquire) != seen;
          });
        }
        slot.sleeping.store(false, std::memory_order_relaxed);
        spins = 0;
      }
    }
    seen = slot.work_gen.load(std::memory_order_acquire);
    // Our mailbox was bumped, so this round includes us: run our fixed
    // index. The dispatcher cannot start a new round (or rewrite the job
    // fields) until our done_ increment below is observed.
    tls_on_pool_thread = true;
    job_call_(job_ctx_, worker_index + 1);
    tls_on_pool_thread = false;
    done_.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace axihc
