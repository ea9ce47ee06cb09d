#include "obs/histogram.hpp"

#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace axihc {

namespace {

constexpr std::size_t kLinearBuckets = std::size_t{1}
                                       << LogHistogram::kSubBucketBits;
constexpr unsigned kFirstOctave = LogHistogram::kSubBucketBits;
constexpr unsigned kLastOctave = 63;
constexpr std::size_t kTotalBuckets =
    kLinearBuckets +
    (kLastOctave - kFirstOctave + 1) * LogHistogram::kSubBuckets;

}  // namespace

LogHistogram::LogHistogram() : counts_(kTotalBuckets, 0) {}

std::size_t LogHistogram::bucket_count() { return kTotalBuckets; }

std::size_t LogHistogram::bucket_index(Cycle value) {
  if (value < kLinearBuckets) return static_cast<std::size_t>(value);
  const unsigned octave = 63u - static_cast<unsigned>(
                                    std::countl_zero(std::uint64_t{value}));
  const unsigned shift = octave - (kSubBucketBits - 1);
  const std::size_t minor = static_cast<std::size_t>(
      (value - (Cycle{1} << octave)) >> shift);
  return kLinearBuckets + (octave - kFirstOctave) * kSubBuckets + minor;
}

Cycle LogHistogram::bucket_lower(std::size_t index) {
  AXIHC_CHECK(index < kTotalBuckets);
  if (index < kLinearBuckets) return static_cast<Cycle>(index);
  const std::size_t rel = index - kLinearBuckets;
  const unsigned octave = kFirstOctave + static_cast<unsigned>(rel / kSubBuckets);
  const std::size_t minor = rel % kSubBuckets;
  const unsigned shift = octave - (kSubBucketBits - 1);
  return (Cycle{1} << octave) + (static_cast<Cycle>(minor) << shift);
}

Cycle LogHistogram::bucket_upper(std::size_t index) {
  AXIHC_CHECK(index < kTotalBuckets);
  if (index < kLinearBuckets) return static_cast<Cycle>(index);
  const std::size_t rel = index - kLinearBuckets;
  const unsigned octave = kFirstOctave + static_cast<unsigned>(rel / kSubBuckets);
  const unsigned shift = octave - (kSubBucketBits - 1);
  return bucket_lower(index) + ((Cycle{1} << shift) - 1);
}

void LogHistogram::record(Cycle latency) {
  ++counts_[bucket_index(latency)];
  if (count_ == 0 || latency < min_) min_ = latency;
  if (count_ == 0 || latency > max_) max_ = latency;
  ++count_;
  sum_ += latency;
}

Cycle LogHistogram::min() const {
  AXIHC_CHECK_MSG(count_ > 0, "min() on empty histogram");
  return min_;
}

Cycle LogHistogram::max() const {
  AXIHC_CHECK_MSG(count_ > 0, "max() on empty histogram");
  return max_;
}

double LogHistogram::mean() const {
  AXIHC_CHECK_MSG(count_ > 0, "mean() on empty histogram");
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

Cycle LogHistogram::percentile(double p) const {
  AXIHC_CHECK_MSG(count_ > 0, "percentile() on empty histogram");
  AXIHC_CHECK(p > 0.0 && p <= 100.0);
  // Nearest-rank: the k-th smallest sample, k = ceil(p/100 * count).
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      const Cycle upper = bucket_upper(i);
      return upper < max_ ? upper : max_;
    }
  }
  return max_;
}

void LogHistogram::clear() {
  counts_.assign(kTotalBuckets, 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

}  // namespace axihc
