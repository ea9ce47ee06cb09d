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

class EventTrace;

/// Per-island staging sink for the parallel tick engine. While a compute
/// phase runs, each worker installs its island's buffer as the calling
/// thread's sink; every EventTrace::record lands here (tagged with the
/// global registration index of the component being ticked) instead of in
/// the shared trace. After the phase, merge_staged_traces() replays the
/// events into their traces in ascending registration-index order — the
/// exact order the serial kernel would have produced, so the trace stream
/// (including capacity-drop accounting) is bit-identical at any thread
/// count. Within one island, components tick in ascending index, so each
/// buffer is already sorted and the merge is a k-way front pick.
class TraceStagingBuffer {
 public:
  [[nodiscard]] bool empty() const { return staged_.empty(); }
  void clear() { staged_.clear(); }

  /// Installs `buf` as the calling thread's staging sink (null = direct
  /// recording). Only the tick engine installs buffers.
  static void install(TraceStagingBuffer* buf);
  [[nodiscard]] static TraceStagingBuffer* current();

  /// Tags subsequently staged events with the registration index of the
  /// component about to tick.
  static void set_sequence(std::uint32_t seq);

 private:
  friend class EventTrace;
  friend void merge_staged_traces(TraceStagingBuffer* const* buffers,
                                  std::size_t n);

  struct Entry {
    std::uint32_t seq;
    EventTrace* trace;
    TraceEvent event;
  };
  std::vector<Entry> staged_;
};

/// Replays all staged events into their traces in ascending registration
/// order and clears the buffers. Runs on the dispatching thread only.
void merge_staged_traces(TraceStagingBuffer* const* buffers, std::size_t n);

class EventTrace {
 public:
  EventTrace() = default;
  ~EventTrace();
  EventTrace(const EventTrace&) = delete;
  EventTrace& operator=(const EventTrace&) = delete;

  void enable(bool on);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// True while any trace in the process is enabled. The tick engine skips
  /// the whole staging path (thread-local sink install + per-component
  /// sequence tagging) when this is false — the common benchmark/production
  /// case — so untraced runs pay nothing for trace determinism. Sampled
  /// once per cycle; traces are expected to be enabled between runs, not
  /// from inside a component's tick.
  [[nodiscard]] static bool any_enabled();

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
  friend class TraceStagingBuffer;
  friend void merge_staged_traces(TraceStagingBuffer* const* buffers,
                                  std::size_t n);

  /// Routes to the thread's staging buffer when one is installed (parallel
  /// compute phase), otherwise commits directly.
  void push(TraceEvent e);

  /// Applies capacity accounting and appends. Only the recording thread
  /// (serial kernel) or the merge (parallel engine) reaches this.
  void commit_push(TraceEvent e);

  bool enabled_ = false;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace axihc
