// Log-bucketed latency histogram with bounded memory (HDR-histogram style).
//
// The one latency-distribution type. Retaining every sample would make
// percentiles exact but memory proportional to run length (a Fig. 5 run
// completes millions of transactions); LogHistogram trades percentile
// accuracy for a fixed footprint:
//
//  * values below 2^kSubBucketBits (64 cycles) land in exact unit-width
//    buckets — short latencies, the common case, lose nothing;
//  * above that, each power-of-two octave is split into kSubBuckets (32)
//    linear sub-buckets, so any reported quantile is at most one sub-bucket
//    width above the true sample: a relative error of at most
//    1/kSubBuckets ≈ 3.1%, always an OVER-estimate (percentiles report the
//    bucket's upper edge, never below the sample that landed there);
//  * count/sum/mean/min/max are tracked exactly on the side, so digests and
//    max-vs-bound comparisons are unaffected by bucketing.
//
// Total footprint: 64 + 58*32 = 1920 buckets of 8 bytes (~15 KiB),
// independent of sample count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace axihc {

class LogHistogram {
 public:
  /// Values below 2^kSubBucketBits get exact unit buckets.
  static constexpr unsigned kSubBucketBits = 6;
  /// Linear sub-buckets per octave above the exact region.
  static constexpr std::size_t kSubBuckets = std::size_t{1}
                                             << (kSubBucketBits - 1);

  LogHistogram();

  void record(Cycle latency);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] Cycle min() const;
  [[nodiscard]] Cycle max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] std::uint64_t sum() const { return sum_; }

  /// p-th percentile (0 < p <= 100) by nearest-rank over buckets. Reports
  /// the holding bucket's upper edge (clamped to the exact max), so the
  /// result is >= the true nearest-rank sample and within ~3.1% of it.
  /// Requires samples.
  [[nodiscard]] Cycle percentile(double p) const;

  void clear();

  /// Bucket geometry, exposed so tests can pin the edge behaviour.
  [[nodiscard]] static std::size_t bucket_index(Cycle value);
  [[nodiscard]] static Cycle bucket_lower(std::size_t index);
  [[nodiscard]] static Cycle bucket_upper(std::size_t index);
  [[nodiscard]] static std::size_t bucket_count();

 private:
  std::vector<std::uint64_t> counts_;
  std::size_t count_ = 0;
  std::uint64_t sum_ = 0;
  Cycle min_ = 0;
  Cycle max_ = 0;
};

}  // namespace axihc
