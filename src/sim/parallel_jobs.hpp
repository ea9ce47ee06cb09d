// Shared-nothing job fan-out — the one parallel primitive, behind the sweep
// runner (src/sweep) and the fault-campaign runner (src/campaign).
//
// Each job must own its entire simulation (Simulator, SocSystem, HAs,
// stores): simulations share no mutable state, which is what makes a sweep
// embarrassingly parallel AND deterministic per job. Results come back in
// job order, and the optional in-order consumer sees them in job order too,
// so the aggregate output of a parallel sweep is byte-identical to a serial
// run.
//
// Parallelism lives only here, across independent simulations: each
// simulation runs on the serial kernel. A call starts plain threads, the
// caller works alongside them, and all are joined before it returns; a
// fan-out nested inside a job runs inline instead of oversubscribing.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <mutex>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

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
/// fan-out so every client (campaigns, sweeps) gets it.
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

namespace detail {
/// Set while a thread runs jobs, so a nested fan-out runs inline.
inline thread_local bool in_parallel_jobs = false;
}  // namespace detail

/// Runs independent jobs on min(parallel_job_threads(), jobs) threads — the
/// caller plus freshly started ones, all joined before returning — and
/// returns their results in job order. A call made from inside a job runs
/// its jobs inline on the calling thread.
///
/// `consume(i, result)`, when given, is called once per job in job order:
/// for job i as soon as jobs 0..i have all finished, never concurrently
/// with itself. It may move from `result`.
///
/// A throwing job (or consumer call) does not stop the other jobs: every
/// job still runs and every thread is joined, then the exception of the
/// lowest-indexed failure is rethrown. Consumer calls stop before that
/// index.
template <typename Result>
std::vector<Result> run_parallel_jobs(
    std::vector<std::function<Result()>> jobs,
    const std::function<void(std::size_t, Result&)>& consume = {}) {
  static_assert(!std::is_same_v<Result, bool>,
                "std::vector<bool> packs bits: concurrent results would race");
  warn_once_if_oversubscribed();
  const std::size_t n = jobs.size();
  std::vector<Result> results(n);
  std::atomic<std::size_t> next{0};

  std::mutex mu;  // guards done, consumed, consuming and the error
  std::vector<bool> done(n, false);
  std::size_t consumed = 0;  // next index to hand to `consume`
  bool consuming = false;    // a thread is draining into `consume`
  std::exception_ptr error;
  std::size_t error_index = n;
  const auto fail = [&](std::size_t i, std::exception_ptr e) {  // under mu
    if (i < error_index) {
      error_index = i;
      error = std::move(e);
    }
  };

  const auto work = [&] {
    const bool nested = detail::in_parallel_jobs;
    detail::in_parallel_jobs = true;
    for (std::size_t i = next++; i < n; i = next++) {
      std::exception_ptr failure;
      try {
        results[i] = jobs[i]();
      } catch (...) {
        failure = std::current_exception();
      }
      std::unique_lock lock(mu);
      done[i] = true;
      if (failure) fail(i, std::move(failure));
      // One thread at a time drains finished results into the consumer;
      // the others go back to claiming jobs.
      if (!consume || consuming) continue;
      consuming = true;
      while (consumed < error_index && done[consumed]) {
        const std::size_t c = consumed++;
        std::exception_ptr consume_failure;
        lock.unlock();
        try {
          consume(c, results[c]);
        } catch (...) {
          consume_failure = std::current_exception();
        }
        lock.lock();
        if (consume_failure) fail(c, std::move(consume_failure));
      }
      consuming = false;
    }
    detail::in_parallel_jobs = nested;
  };

  const std::size_t helpers =
      detail::in_parallel_jobs || n < 2
          ? 0
          : std::min<std::size_t>(parallel_job_threads(), n) - 1;
  {
    std::vector<std::jthread> threads;  // joined on scope exit
    threads.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t) {
      try {
        threads.emplace_back(work);
      } catch (const std::system_error&) {
        break;  // fewer threads; the caller still drains every job
      }
    }
    work();
  }
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace axihc
