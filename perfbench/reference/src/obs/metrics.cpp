#include "obs/metrics.hpp"

#include <cmath>
#include <ostream>
#include <utility>

#include "common/check.hpp"

namespace axihc {

namespace {

/// Most metrics are integer counters read into doubles; print those without
/// a decimal point so the CSV diffs cleanly and parses as int where it is
/// one.
void print_value(std::ostream& os, double v) {
  if (std::floor(v) == v && std::abs(v) < 9.0e15) {
    os << static_cast<long long>(v);
  } else {
    os << v;
  }
}

}  // namespace

void MetricsRegistry::add(std::string name, MetricKind kind, Reader read) {
  AXIHC_CHECK_MSG(static_cast<bool>(read),
                  "metric '" << name << "' needs a reader");
  AXIHC_CHECK_MSG(find(name) == size(),
                  "duplicate metric name '" << name << "'");
  entries_.push_back({std::move(name), kind, std::move(read)});
}

void MetricsRegistry::add_counter(std::string name,
                                  const std::uint64_t* value) {
  add(std::move(name), MetricKind::kCounter,
      [value] { return static_cast<double>(*value); });
}

void MetricsRegistry::add_gauge(std::string name, const std::uint64_t* value) {
  add(std::move(name), MetricKind::kGauge,
      [value] { return static_cast<double>(*value); });
}

const std::string& MetricsRegistry::name(std::size_t i) const {
  AXIHC_CHECK(i < entries_.size());
  return entries_[i].name;
}

MetricKind MetricsRegistry::kind(std::size_t i) const {
  AXIHC_CHECK(i < entries_.size());
  return entries_[i].kind;
}

double MetricsRegistry::read(std::size_t i) const {
  AXIHC_CHECK(i < entries_.size());
  return entries_[i].read();
}

std::size_t MetricsRegistry::find(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return i;
  }
  return entries_.size();
}

MetricsSampler::MetricsSampler(std::string name,
                               const MetricsRegistry& registry,
                               Cycle sample_every)
    : Component(std::move(name)),
      registry_(registry),
      sample_every_(sample_every) {
  AXIHC_CHECK_MSG(sample_every_ > 0, "sample period must be >= 1 cycle");
}

void MetricsSampler::tick(Cycle now) {
  if (now % sample_every_ == 0) sample(now);
}

void MetricsSampler::reset() { snapshots_.clear(); }

void MetricsSampler::sample(Cycle now) {
  MetricsSnapshot snap;
  snap.cycle = now;
  snap.values.reserve(registry_.size());
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    snap.values.push_back(registry_.read(i));
  }
  snapshots_.push_back(std::move(snap));
}

void MetricsSampler::finalize(Cycle now) {
  if (!snapshots_.empty() && snapshots_.back().cycle == now) return;
  sample(now);
}

void MetricsSampler::write_csv(std::ostream& os) const {
  os << "cycle";
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    os << ',' << registry_.name(i);
  }
  os << '\n';
  for (const auto& snap : snapshots_) {
    os << snap.cycle;
    for (const double v : snap.values) {
      os << ',';
      print_value(os, v);
    }
    os << '\n';
  }
}

void MetricsSampler::write_jsonl(std::ostream& os) const {
  for (const auto& snap : snapshots_) {
    os << "{\"cycle\":" << snap.cycle;
    for (std::size_t i = 0; i < snap.values.size(); ++i) {
      os << ",\"" << registry_.name(i) << "\":";
      print_value(os, snap.values[i]);
    }
    os << "}\n";
  }
}

}  // namespace axihc
