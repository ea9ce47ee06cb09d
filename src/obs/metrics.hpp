// Metrics registry + periodic sampler — the numeric half of the
// observability layer (the trace half is sim/trace.hpp + chrome_trace.hpp).
//
// Any component can register named metrics as read callbacks; nothing is
// stored per event, so registration is free at simulation time. A
// MetricsSampler snapshots every registered metric every N cycles into an
// in-memory time series that can be written as CSV or JSON-lines — the
// software analogue of the paper's fabric timer feeding the Fig. 3–5 plots,
// generalized to every counter the model already maintains.
//
// Two metric kinds, mirroring the usual monitoring vocabulary:
//  * kGauge   — an instantaneous level (eFIFO occupancy, budget remaining,
//               outstanding transactions, queue depth);
//  * kCounter — a monotonically increasing total (grants, beats, faults,
//               bytes). Rates are differences between samples, so the sum of
//               per-window deltas always equals the end-of-run total.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/component.hpp"

namespace axihc {

enum class MetricKind : std::uint8_t { kGauge, kCounter };

/// A flat list of named read callbacks. Names use dotted paths
/// ("hc.port0.budget_left"); see docs/OBSERVABILITY.md for the catalog.
class MetricsRegistry {
 public:
  using Reader = std::function<double()>;

  /// Registers a metric. The callback is invoked at every sample and must
  /// stay valid for the registry's lifetime (components register metrics
  /// reading their own members, and outlive the registry's owner).
  void add(std::string name, MetricKind kind, Reader read);

  /// Convenience for the common case of exposing an integer member.
  void add_counter(std::string name, const std::uint64_t* value);
  void add_gauge(std::string name, const std::uint64_t* value);

  /// Kind-tagged callback registration (lambdas computing the value).
  void add_counter(std::string name, Reader read) {
    add(std::move(name), MetricKind::kCounter, std::move(read));
  }
  void add_gauge(std::string name, Reader read) {
    add(std::move(name), MetricKind::kGauge, std::move(read));
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::string& name(std::size_t i) const;
  [[nodiscard]] MetricKind kind(std::size_t i) const;
  [[nodiscard]] double read(std::size_t i) const;

  /// Index of a metric by exact name, or size() when absent.
  [[nodiscard]] std::size_t find(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    Reader read;
  };
  std::vector<Entry> entries_;
};

/// One row of the time series: every registered metric at one cycle.
struct MetricsSnapshot {
  Cycle cycle = 0;
  std::vector<double> values;
};

/// Clocked sampler: snapshots the registry every `sample_every` cycles
/// (cycles 0, N, 2N, ...). Reading metrics cannot disturb the simulation —
/// all readers are observation-only by construction.
class MetricsSampler final : public Component {
 public:
  MetricsSampler(std::string name, const MetricsRegistry& registry,
                 Cycle sample_every);

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    // Strictly clocked: only sample boundaries are observable. The sampled
    // values are frozen along with the rest of the world between boundaries,
    // so skipping the in-between cycles cannot change any snapshot. A
    // component that catches up lazily does so in its own tick at the
    // boundary, which is why the sampler is registered after the components
    // it reads.
    const Cycle n = sample_every_;
    return now % n == 0 ? now : (now / n + 1) * n;
  }

  /// Takes one snapshot immediately (used by tick, and by end-of-run
  /// finalization so the last partial window is never lost).
  void sample(Cycle now);

  /// Samples at `now` unless a snapshot for that cycle already exists.
  void finalize(Cycle now);

  [[nodiscard]] bool observer() const override { return true; }

  [[nodiscard]] Cycle sample_every() const { return sample_every_; }
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }
  [[nodiscard]] const std::vector<MetricsSnapshot>& snapshots() const {
    return snapshots_;
  }

  /// CSV: header row `cycle,<name>,...`, one row per snapshot. Integral
  /// values print without a decimal point.
  void write_csv(std::ostream& os) const;

  /// JSON-lines: one `{"cycle":N,"<name>":v,...}` object per line.
  void write_jsonl(std::ostream& os) const;

 private:
  const MetricsRegistry& registry_;
  Cycle sample_every_;
  std::vector<MetricsSnapshot> snapshots_;
};

}  // namespace axihc
