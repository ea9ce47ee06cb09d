// Shared-nothing job fan-out over the worker pool — the engine behind the
// bench sweeps (bench/bench_common.hpp) and the fault-campaign runner
// (src/campaign).
//
// Each job must own its entire simulation (Simulator, SocSystem, HAs,
// stores): simulations share no mutable state, which is what makes a sweep
// embarrassingly parallel AND deterministic per job. Results come back in
// job order, so the aggregate output of a parallel sweep is byte-identical
// to a serial run.
//
// Parallelism lives only here, across independent simulations: each
// simulation runs on the serial kernel. Jobs draw from one shared pool
// (sim/worker_pool.hpp); a fan-out nested inside a job runs inline instead
// of oversubscribing, so total parallelism is capped by the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "sim/worker_pool.hpp"

namespace axihc {

/// Worker threads for run_parallel_jobs: AXIHC_BENCH_THREADS overrides
/// (0 or unset = one per hardware thread).
inline unsigned parallel_job_threads() {
  if (const char* env = std::getenv("AXIHC_BENCH_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Process-wide peak resident set in KiB (0 where unsupported). ru_maxrss
/// is a high-water mark, so per-job attribution is approximate: the value
/// recorded after a job is the largest footprint ANY job had reached by
/// then — an upper bound on the job's own peak.
inline long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<long>(ru.ru_maxrss / 1024);  // bytes on macOS
#else
    return static_cast<long>(ru.ru_maxrss);  // KiB on Linux
#endif
  }
#endif
  return 0;
}

/// Wall-time + memory rider for one scheduled job (sweep rows record it).
struct JobTiming {
  double wall_ms = 0.0;
  long rss_kb = 0;
};

/// Runs `job`, filling `timing` with its wall time and the process peak RSS
/// observed at completion.
template <typename Fn>
auto run_timed_job(Fn&& job, JobTiming& timing) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = job();
  const auto t1 = std::chrono::steady_clock::now();
  timing.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  timing.rss_kb = peak_rss_kb();
  return result;
}

/// Warns (once per process) when AXIHC_BENCH_THREADS asks for more workers
/// than the host has hardware threads: the jobs still run, but
/// oversubscribed timings are not scaling measurements. Lives in the shared
/// scheduler so every fan-out client (benches, campaigns, sweeps) gets it.
inline void warn_once_if_oversubscribed() {
  static const bool warned = [] {
    const unsigned requested = parallel_job_threads();
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && requested > hw) {
      std::cerr << "axihc: AXIHC_BENCH_THREADS=" << requested
                << " exceeds this host's " << hw
                << " hardware thread(s); timings will be oversubscribed\n";
    }
    return true;
  }();
  (void)warned;
}

/// Runs independent jobs across the shared worker pool and returns their
/// results in job order.
template <typename Result>
std::vector<Result> run_parallel_jobs(
    std::vector<std::function<Result()>> jobs) {
  warn_once_if_oversubscribed();
  std::vector<Result> results(jobs.size());
  const unsigned threads =
      std::min<unsigned>(parallel_job_threads(),
                         static_cast<unsigned>(jobs.size()));
  if (threads <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) results[i] = jobs[i]();
    return results;
  }
  std::atomic<std::size_t> next{0};
  WorkerPool::shared().run_tasks(threads, [&](unsigned) {
    for (std::size_t i = next.fetch_add(1); i < jobs.size();
         i = next.fetch_add(1)) {
      results[i] = jobs[i]();
    }
  });
  return results;
}

}  // namespace axihc
