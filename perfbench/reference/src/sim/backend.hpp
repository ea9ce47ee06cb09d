// Runtime-dispatched compute backends for the kernel's linear sweeps.
//
// The two loops worth vectorizing (see soa_pool.hpp for the data layout):
//  * the commit sweep over pooled channel hot lanes — dense (whole pool) or
//    sparse (dirty lanes only), picked per cycle by dirty density;
//  * the fast-forward min-reduction over the next_activity certificate
//    array.
// Each ships as a table of function pointers (BackendKernels) in scalar,
// SSE2 and AVX2 flavours. All flavours are bit-exact by construction: the
// dense sweep relies only on the clean-lane invariant (staged == 0 and
// snapshot == committed), and the reduction is an exact unsigned min — so
// backend choice can never change a digest or a trace, only wall time.
//
// Selection follows the streaming-kernel policy idiom: a BackendPolicy
// records what was requested (CLI/--backend or API), what the CPU supports
// (runtime CPUID), whether AXIHC_FORCE_BACKEND overrode the request, and
// the chosen backend with a human-readable reason — one report() line pins
// the dispatch path in logs and bug reports. `auto_tune_backend()` is an
// optional micro-probe that times each supported flavour on synthetic pools
// and returns the fastest for this host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace axihc {

struct ChannelHot;

enum class BackendKind : std::uint8_t { kScalar, kSse2, kAvx2, kAuto };

[[nodiscard]] const char* to_string(BackendKind kind);

/// Parses "scalar" / "sse2" / "avx2" / "auto". Returns false (and leaves
/// `out` untouched) on anything else.
[[nodiscard]] bool parse_backend(std::string_view text, BackendKind& out);

/// Runtime CPU capabilities relevant to the shipped kernels. All false on
/// non-x86 hosts (only the scalar backend is selectable there).
struct CpuFeatures {
  bool sse2 = false;
  bool avx2 = false;
  /// Space-separated feature list for the policy report, e.g. "sse2 avx2";
  /// "none" when no SIMD kernel is usable.
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] CpuFeatures detect_cpu_features();

/// The vectorizable kernels of one backend. All are exact (no reordering of
/// observable effects): every backend produces bit-identical pool state.
struct BackendKernels {
  BackendKind kind = BackendKind::kScalar;

  /// Commits every lane of `hot[0, n)`:
  ///   committed += staged; staged = 0; snapshot = committed.
  /// Safe to run over clean lanes: a lane not touched since its last commit
  /// has staged == 0 and snapshot == committed, so the update is a no-op.
  void (*commit_dense)(ChannelHot* hot, std::size_t n) = nullptr;

  /// Same update, only for the `n` lane indices in `lanes` (may repeat; the
  /// update is idempotent within a commit phase).
  void (*commit_sparse)(ChannelHot* hot, const std::uint32_t* lanes,
                        std::size_t n) = nullptr;

  /// Exact unsigned min over `v[0, n)`; identity (n == 0) is UINT64_MAX,
  /// which is kNoCycle — "no certificate" and "no component" coincide.
  std::uint64_t (*min_reduce)(const std::uint64_t* v, std::size_t n) = nullptr;
};

/// Kernel table for a concrete backend (not kAuto). Callers are expected to
/// go through resolve_backend() so unsupported ISAs are never dispatched;
/// passing an unsupported concrete kind returns the scalar table.
[[nodiscard]] const BackendKernels& kernels_for(BackendKind kind);

/// How a Simulator ended up on its backend. One line via report().
struct BackendPolicy {
  BackendKind requested = BackendKind::kAuto;
  BackendKind chosen = BackendKind::kScalar;
  CpuFeatures cpu;
  bool forced_by_env = false;  // AXIHC_FORCE_BACKEND took precedence
  std::string reason;          // human-readable selection rationale

  /// e.g. "backend policy: chosen=avx2 requested=auto cpu=[sse2 avx2]
  ///       reason=auto: widest supported ISA"
  [[nodiscard]] std::string report() const;
};

/// Resolves `requested` against the host CPU and the AXIHC_FORCE_BACKEND
/// environment override (highest precedence; an unparseable or unsupported
/// override is recorded in `reason` and ignored). Unsupported concrete
/// requests fall back to scalar rather than fail: the backends are
/// bit-identical, so degrading is always safe.
[[nodiscard]] BackendPolicy resolve_backend(BackendKind requested);

/// Micro-probe: times each supported backend's dense-commit and min-reduce
/// kernels on synthetic pools and returns the fastest. `note` (optional)
/// receives a one-line timing summary.
[[nodiscard]] BackendKind auto_tune_backend(std::string* note = nullptr);

// SIMD kernel tables, defined in backend_simd.cpp via GCC/Clang target
// attributes; null on hosts/compilers without x86 SIMD support. Internal —
// use kernels_for().
namespace backend_detail {
[[nodiscard]] const BackendKernels* sse2_kernels();
[[nodiscard]] const BackendKernels* avx2_kernels();
}  // namespace backend_detail

}  // namespace axihc
