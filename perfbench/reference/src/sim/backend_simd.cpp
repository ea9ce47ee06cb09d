// SSE2 and AVX2 kernel flavours (see backend.hpp). Compiled with GCC/Clang
// per-function target attributes so this TU builds regardless of the global
// -m flags; dispatch never reaches these on CPUs without the ISA (runtime
// CPUID in detect_cpu_features gates selection).
//
// Lane math recap for the commit kernels: a ChannelHot lane is four packed
// u32 words [head, committed, staged, snapshot]; a commit rewrites it to
// [head, committed + staged, 0, committed + staged]. Vector-wise that is
// two dword broadcasts (committed, staged), one add, and a blend/mask to
// place the sum into the committed and snapshot words while zeroing staged.
//
// The min-reduction runs in a sign-biased domain: SSE2/AVX2 only compare
// signed 64-bit values (and SSE2 not even that, see cmpgt64_sse2), so
// operands are XORed with 2^63 on load, reduced with signed compares, and
// un-biased at the end — an exact unsigned min for the full u64 range,
// kNoCycle (UINT64_MAX) included.
#include "sim/backend.hpp"

#include "sim/soa_pool.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define AXIHC_X86_SIMD 1
#include <immintrin.h>
#endif

namespace axihc::backend_detail {

#ifdef AXIHC_X86_SIMD

namespace {

// --- SSE2 ----------------------------------------------------------------

/// One-lane commit step shared by the SSE2 dense/sparse kernels (and the
/// AVX2 sparse kernel: scattered lanes gain nothing from 256-bit ops).
__attribute__((target("sse2"))) inline __m128i commit_lane_sse2(__m128i v) {
  const __m128i cc = _mm_shuffle_epi32(v, 0x55);  // [c,c,c,c]
  const __m128i ss = _mm_shuffle_epi32(v, 0xaa);  // [s,s,s,s]
  const __m128i t = _mm_add_epi32(cc, ss);        // [c+s x4]
  const __m128i keep_h = _mm_set_epi32(0, 0, 0, -1);
  const __m128i take_t = _mm_set_epi32(-1, 0, -1, 0);
  return _mm_or_si128(_mm_and_si128(v, keep_h), _mm_and_si128(t, take_t));
}

__attribute__((target("sse2"))) void commit_dense_sse2(ChannelHot* hot,
                                                       std::size_t n) {
  __m128i* p = reinterpret_cast<__m128i*>(hot);
  for (std::size_t i = 0; i < n; ++i) {
    _mm_storeu_si128(p + i, commit_lane_sse2(_mm_loadu_si128(p + i)));
  }
}

__attribute__((target("sse2"))) void commit_sparse_sse2(
    ChannelHot* hot, const std::uint32_t* lanes, std::size_t n) {
  __m128i* p = reinterpret_cast<__m128i*>(hot);
  for (std::size_t i = 0; i < n; ++i) {
    __m128i* lp = p + lanes[i];
    _mm_storeu_si128(lp, commit_lane_sse2(_mm_loadu_si128(lp)));
  }
}

/// Per-64-bit-element signed a > b mask, built from 32-bit SSE2 compares:
/// the high dwords decide unless equal, in which case the borrow of the
/// 64-bit subtraction (its sign bit) decides. The shuffle broadcasts the
/// high-dword verdict over the element; srai turns the (correct-sign,
/// garbage-bits) dword into a proper all-ones/all-zeros mask.
__attribute__((target("sse2"))) inline __m128i cmpgt64_sse2(__m128i a,
                                                            __m128i b) {
  __m128i r = _mm_and_si128(_mm_cmpeq_epi32(a, b), _mm_sub_epi64(b, a));
  r = _mm_or_si128(r, _mm_cmpgt_epi32(a, b));
  r = _mm_shuffle_epi32(r, _MM_SHUFFLE(3, 3, 1, 1));
  return _mm_srai_epi32(r, 31);
}

__attribute__((target("sse2"))) std::uint64_t min_reduce_sse2(
    const std::uint64_t* v, std::size_t n) {
  const std::uint64_t kBias = 0x8000000000000000ull;
  std::size_t i = 0;
  std::uint64_t result = UINT64_MAX;
  if (n >= 2) {
    const __m128i bias = _mm_set1_epi64x(static_cast<long long>(kBias));
    // Biased UINT64_MAX == INT64_MAX: the identity of the signed min.
    __m128i accb = _mm_set1_epi64x(INT64_MAX);
    for (; i + 2 <= n; i += 2) {
      const __m128i xb = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i)), bias);
      const __m128i gt = cmpgt64_sse2(accb, xb);  // acc > x -> take x
      accb = _mm_or_si128(_mm_and_si128(gt, xb), _mm_andnot_si128(gt, accb));
    }
    alignas(16) std::int64_t lanes[2];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), accb);
    const std::int64_t m = lanes[0] < lanes[1] ? lanes[0] : lanes[1];
    result = static_cast<std::uint64_t>(m) ^ kBias;
  }
  for (; i < n; ++i) {
    if (v[i] < result) result = v[i];
  }
  return result;
}

// --- AVX2 ----------------------------------------------------------------

__attribute__((target("avx2"))) void commit_dense_avx2(ChannelHot* hot,
                                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m256i* p = reinterpret_cast<__m256i*>(hot + i);
    const __m256i v = _mm256_loadu_si256(p);
    const __m256i cc = _mm256_shuffle_epi32(v, 0x55);
    const __m256i ss = _mm256_shuffle_epi32(v, 0xaa);
    const __m256i t = _mm256_add_epi32(cc, ss);
    // Elements 1,3 (and 5,7) take committed+staged; then zero staged (2,6).
    __m256i r = _mm256_blend_epi32(v, t, 0xaa);
    const __m256i zero_staged =
        _mm256_set_epi32(-1, 0, -1, -1, -1, 0, -1, -1);
    r = _mm256_and_si256(r, zero_staged);
    _mm256_storeu_si256(p, r);
  }
  for (; i < n; ++i) {  // odd tail lane
    ChannelHot& h = hot[i];
    h.committed += h.staged;
    h.staged = 0;
    h.snapshot = h.committed;
  }
}

__attribute__((target("avx2"))) std::uint64_t min_reduce_avx2(
    const std::uint64_t* v, std::size_t n) {
  const std::uint64_t kBias = 0x8000000000000000ull;
  std::size_t i = 0;
  std::uint64_t result = UINT64_MAX;
  if (n >= 4) {
    const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(kBias));
    __m256i accb = _mm256_set1_epi64x(INT64_MAX);
    for (; i + 4 <= n; i += 4) {
      const __m256i xb = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)), bias);
      const __m256i gt = _mm256_cmpgt_epi64(accb, xb);
      accb = _mm256_blendv_epi8(accb, xb, gt);
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), accb);
    std::int64_t m = lanes[0];
    for (int k = 1; k < 4; ++k) {
      if (lanes[k] < m) m = lanes[k];
    }
    result = static_cast<std::uint64_t>(m) ^ kBias;
  }
  for (; i < n; ++i) {
    if (v[i] < result) result = v[i];
  }
  return result;
}

const BackendKernels kSse2Kernels = {
    BackendKind::kSse2,
    &commit_dense_sse2,
    &commit_sparse_sse2,
    &min_reduce_sse2,
};

const BackendKernels kAvx2Kernels = {
    BackendKind::kAvx2,
    &commit_dense_avx2,
    &commit_sparse_sse2,  // scattered lanes: 128-bit ops are the right width
    &min_reduce_avx2,
};

}  // namespace

const BackendKernels* sse2_kernels() { return &kSse2Kernels; }
const BackendKernels* avx2_kernels() { return &kAvx2Kernels; }

#else  // !AXIHC_X86_SIMD — non-x86 or non-GCC/Clang: scalar only

const BackendKernels* sse2_kernels() { return nullptr; }
const BackendKernels* avx2_kernels() { return nullptr; }

#endif

}  // namespace axihc::backend_detail
