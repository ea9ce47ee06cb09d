#include "sim/backend.hpp"

#include <chrono>
#include <cstdlib>
#include <vector>

#include "sim/soa_pool.hpp"

namespace axihc {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kSse2:
      return "sse2";
    case BackendKind::kAvx2:
      return "avx2";
    case BackendKind::kAuto:
      return "auto";
  }
  return "?";
}

bool parse_backend(std::string_view text, BackendKind& out) {
  if (text == "scalar") {
    out = BackendKind::kScalar;
  } else if (text == "sse2") {
    out = BackendKind::kSse2;
  } else if (text == "avx2") {
    out = BackendKind::kAvx2;
  } else if (text == "auto") {
    out = BackendKind::kAuto;
  } else {
    return false;
  }
  return true;
}

std::string CpuFeatures::to_string() const {
  std::string s;
  if (sse2) s += "sse2";
  if (avx2) s += s.empty() ? "avx2" : " avx2";
  return s.empty() ? "none" : s;
}

CpuFeatures detect_cpu_features() {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  __builtin_cpu_init();
  // __builtin_cpu_supports folds in OS support (XSAVE state) for AVX2, so a
  // "yes" here means the kernels are actually executable, not just decoded.
  f.sse2 = __builtin_cpu_supports("sse2") != 0 &&
           backend_detail::sse2_kernels() != nullptr;
  f.avx2 = __builtin_cpu_supports("avx2") != 0 &&
           backend_detail::avx2_kernels() != nullptr;
#endif
  return f;
}

// --- scalar kernels ------------------------------------------------------

namespace {

void commit_dense_scalar(ChannelHot* hot, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    ChannelHot& h = hot[i];
    h.committed += h.staged;
    h.staged = 0;
    h.snapshot = h.committed;
  }
}

void commit_sparse_scalar(ChannelHot* hot, const std::uint32_t* lanes,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    ChannelHot& h = hot[lanes[i]];
    h.committed += h.staged;
    h.staged = 0;
    h.snapshot = h.committed;
  }
}

std::uint64_t min_reduce_scalar(const std::uint64_t* v, std::size_t n) {
  std::uint64_t m = UINT64_MAX;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] < m) m = v[i];
  }
  return m;
}

constexpr BackendKernels kScalarKernels = {
    BackendKind::kScalar,
    &commit_dense_scalar,
    &commit_sparse_scalar,
    &min_reduce_scalar,
};

}  // namespace

const BackendKernels& kernels_for(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSse2:
      if (const BackendKernels* k = backend_detail::sse2_kernels()) return *k;
      break;
    case BackendKind::kAvx2:
      if (const BackendKernels* k = backend_detail::avx2_kernels()) return *k;
      break;
    default:
      break;
  }
  return kScalarKernels;
}

// --- policy --------------------------------------------------------------

namespace {

bool supported(BackendKind kind, const CpuFeatures& cpu) {
  switch (kind) {
    case BackendKind::kScalar:
      return true;
    case BackendKind::kSse2:
      return cpu.sse2;
    case BackendKind::kAvx2:
      return cpu.avx2;
    case BackendKind::kAuto:
      return true;
  }
  return false;
}

BackendKind widest(const CpuFeatures& cpu) {
  if (cpu.avx2) return BackendKind::kAvx2;
  if (cpu.sse2) return BackendKind::kSse2;
  return BackendKind::kScalar;
}

}  // namespace

BackendPolicy resolve_backend(BackendKind requested) {
  BackendPolicy p;
  p.requested = requested;
  p.cpu = detect_cpu_features();

  if (const char* env = std::getenv("AXIHC_FORCE_BACKEND");
      env != nullptr && env[0] != '\0') {
    BackendKind forced = BackendKind::kAuto;
    if (!parse_backend(env, forced)) {
      p.reason = "AXIHC_FORCE_BACKEND='" + std::string(env) +
                 "' unparseable, ignored; ";
    } else if (forced == BackendKind::kAuto) {
      p.chosen = widest(p.cpu);
      p.forced_by_env = true;
      p.reason = "AXIHC_FORCE_BACKEND=auto: widest supported ISA";
      return p;
    } else if (!supported(forced, p.cpu)) {
      p.reason = "AXIHC_FORCE_BACKEND=" + std::string(to_string(forced)) +
                 " not supported on this CPU, ignored; ";
    } else {
      p.chosen = forced;
      p.forced_by_env = true;
      p.reason = "AXIHC_FORCE_BACKEND override";
      return p;
    }
  }

  if (requested == BackendKind::kAuto) {
    p.chosen = widest(p.cpu);
    p.reason += p.chosen == BackendKind::kScalar
                    ? "auto: no SIMD support, scalar"
                    : "auto: widest supported ISA";
  } else if (supported(requested, p.cpu)) {
    p.chosen = requested;
    p.reason += "requested explicitly";
  } else {
    p.chosen = BackendKind::kScalar;
    p.reason += std::string(to_string(requested)) +
                " not supported on this CPU, scalar fallback";
  }
  return p;
}

std::string BackendPolicy::report() const {
  std::string line = "backend policy: chosen=";
  line += to_string(chosen);
  line += " requested=";
  line += to_string(requested);
  line += " cpu=[";
  line += cpu.to_string();
  line += "]";
  if (forced_by_env) line += " forced-by-env";
  line += " reason=";
  line += reason;
  return line;
}

// --- auto-tune micro-probe -----------------------------------------------

namespace {

/// Wall time of `reps` kernel rounds over synthetic pools sized like a
/// mid-size topology (the absolute number only matters relative to the
/// other backends on the same host).
double probe_backend(const BackendKernels& k, std::vector<ChannelHot>& hot,
                     std::vector<std::uint64_t>& certs, int reps) {
  using clock = std::chrono::steady_clock;
  std::uint64_t acc = 0;
  const auto t0 = clock::now();
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < hot.size(); i += 7) {
      hot[i].staged = static_cast<std::uint32_t>(r + 1);
    }
    k.commit_dense(hot.data(), hot.size());
    acc += k.min_reduce(certs.data(), certs.size());
  }
  const double secs = std::chrono::duration<double>(clock::now() - t0).count();
  volatile std::uint64_t sink = acc;  // keep the reduce chain observable
  (void)sink;
  return secs;
}

}  // namespace

BackendKind auto_tune_backend(std::string* note) {
  const CpuFeatures cpu = detect_cpu_features();
  std::vector<ChannelHot> hot(512);
  std::vector<std::uint64_t> certs(512);
  for (std::size_t i = 0; i < certs.size(); ++i) {
    certs[i] = 1'000'000 + i * 37;
  }
  constexpr int kReps = 4096;

  BackendKind best = BackendKind::kScalar;
  double best_t = probe_backend(kScalarKernels, hot, certs, kReps);
  std::string summary =
      "auto-tune: scalar=" + std::to_string(best_t * 1e3) + "ms";
  const BackendKind candidates[] = {BackendKind::kSse2, BackendKind::kAvx2};
  for (BackendKind cand : candidates) {
    if (!supported(cand, cpu)) continue;
    const double t = probe_backend(kernels_for(cand), hot, certs, kReps);
    summary += std::string(" ") + to_string(cand) + "=" +
               std::to_string(t * 1e3) + "ms";
    if (t < best_t) {
      best_t = t;
      best = cand;
    }
  }
  summary += std::string(" -> ") + to_string(best);
  if (note != nullptr) *note = summary;
  return best;
}

}  // namespace axihc
