// Lightweight event trace. Components can record named events; tests use the
// trace to assert exact timing, and debugging dumps it as text. Disabled
// traces cost one branch per record.
//
// Events are typed so exporters (src/obs/chrome_trace.hpp) can render them
// as a timeline: instants (points), begin/end pairs (durations on the
// source's track), and counters (numeric time series). The original
// `record()` keeps its instant semantics, so existing callers and tests are
// unchanged.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace axihc {

/// How an event renders on a timeline.
enum class TraceKind : std::uint8_t {
  kInstant,    // a point in time
  kBegin,      // start of a duration slice on the source's track
  kEnd,        // end of the most recent slice with the same (source, event)
  kCounter,    // a numeric sample (value field)
  kFlowStart,  // origin of a flow arrow (value = flow id)
  kFlowEnd,    // terminus of the flow arrow with the same id
};

struct TraceEvent {
  Cycle cycle;
  std::string source;
  std::string event;
  TraceKind kind = TraceKind::kInstant;
  double value = 0.0;  // kCounter payload; unused otherwise
};

class EventTrace {
 public:
  EventTrace() = default;
  EventTrace(const EventTrace&) = delete;
  EventTrace& operator=(const EventTrace&) = delete;

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Caps the number of retained events, like a fixed-capacity hardware
  /// buffer (common/ring_buffer.hpp): once full, later events are discarded
  /// and counted in dropped() instead of growing memory without bound.
  /// The retained prefix keeps its exact timing. 0 = unbounded (default,
  /// so tests see every event).
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  void record(Cycle cycle, std::string source, std::string event);
  void record_begin(Cycle cycle, std::string source, std::string event);
  void record_end(Cycle cycle, std::string source, std::string event);
  void record_counter(Cycle cycle, std::string source, std::string event,
                      double value);

  /// Flow arrows: a kFlowStart and the kFlowEnd carrying the same `id` are
  /// rendered as an arrow between their (cycle, source) anchor points —
  /// the latency auditor uses one per transaction to link request issue to
  /// response delivery across component tracks.
  void record_flow_start(Cycle cycle, std::string source, std::string event,
                         std::uint64_t id);
  void record_flow_end(Cycle cycle, std::string source, std::string event,
                       std::uint64_t id);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

  /// First cycle at which (source, event) was recorded, or kNoCycle.
  [[nodiscard]] Cycle first(const std::string& source,
                            const std::string& event) const;

  /// Number of events matching (source, event).
  [[nodiscard]] std::size_t count(const std::string& source,
                                  const std::string& event) const;

  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Writes a human-readable dump, one event per line.
  void dump(std::ostream& os) const;

 private:
  /// Applies capacity accounting and appends.
  void push(TraceEvent e);

  bool enabled_ = false;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace axihc
