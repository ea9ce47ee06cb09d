#include "sim/trace.hpp"

#include <atomic>
#include <ostream>
#include <utility>

namespace axihc {

namespace {
thread_local TraceStagingBuffer* tls_staging = nullptr;
thread_local std::uint32_t tls_sequence = 0;
// Process-wide count of enabled EventTrace instances (any_enabled()).
std::atomic<int> g_enabled_traces{0};
}  // namespace

EventTrace::~EventTrace() {
  if (enabled_) g_enabled_traces.fetch_sub(1, std::memory_order_relaxed);
}

void EventTrace::enable(bool on) {
  if (on == enabled_) return;
  enabled_ = on;
  g_enabled_traces.fetch_add(on ? 1 : -1, std::memory_order_relaxed);
}

bool EventTrace::any_enabled() {
  return g_enabled_traces.load(std::memory_order_relaxed) != 0;
}

void TraceStagingBuffer::install(TraceStagingBuffer* buf) {
  tls_staging = buf;
}

TraceStagingBuffer* TraceStagingBuffer::current() { return tls_staging; }

void TraceStagingBuffer::set_sequence(std::uint32_t seq) {
  tls_sequence = seq;
}

void merge_staged_traces(TraceStagingBuffer* const* buffers, std::size_t n) {
  // K-way merge by ascending registration index. Each buffer is internally
  // sorted (components tick in ascending index within an island) and no
  // index appears in two buffers (a component belongs to one island), so
  // repeatedly draining the run at the smallest front index reproduces the
  // serial recording order exactly.
  static thread_local std::vector<std::size_t> pos;
  pos.assign(n, 0);
  for (;;) {
    std::size_t best = n;
    std::uint32_t best_seq = 0;
    for (std::size_t b = 0; b < n; ++b) {
      if (pos[b] >= buffers[b]->staged_.size()) continue;
      const std::uint32_t seq = buffers[b]->staged_[pos[b]].seq;
      if (best == n || seq < best_seq) {
        best = b;
        best_seq = seq;
      }
    }
    if (best == n) break;
    auto& staged = buffers[best]->staged_;
    std::size_t& p = pos[best];
    do {
      auto& entry = staged[p];
      entry.trace->commit_push(std::move(entry.event));
      ++p;
    } while (p < staged.size() && staged[p].seq == best_seq);
  }
  for (std::size_t b = 0; b < n; ++b) buffers[b]->clear();
}

void EventTrace::push(TraceEvent e) {
  if (tls_staging != nullptr) {
    tls_staging->staged_.push_back({tls_sequence, this, std::move(e)});
    return;
  }
  commit_push(std::move(e));
}

void EventTrace::commit_push(TraceEvent e) {
  if (capacity_ != 0 && events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void EventTrace::record(Cycle cycle, std::string source, std::string event) {
  if (!enabled_) return;
  push({cycle, std::move(source), std::move(event), TraceKind::kInstant, 0.0});
}

void EventTrace::record_begin(Cycle cycle, std::string source,
                              std::string event) {
  if (!enabled_) return;
  push({cycle, std::move(source), std::move(event), TraceKind::kBegin, 0.0});
}

void EventTrace::record_end(Cycle cycle, std::string source,
                            std::string event) {
  if (!enabled_) return;
  push({cycle, std::move(source), std::move(event), TraceKind::kEnd, 0.0});
}

void EventTrace::record_counter(Cycle cycle, std::string source,
                                std::string event, double value) {
  if (!enabled_) return;
  push({cycle, std::move(source), std::move(event), TraceKind::kCounter,
        value});
}

void EventTrace::record_flow_start(Cycle cycle, std::string source,
                                   std::string event, std::uint64_t id) {
  if (!enabled_) return;
  push({cycle, std::move(source), std::move(event), TraceKind::kFlowStart,
        static_cast<double>(id)});
}

void EventTrace::record_flow_end(Cycle cycle, std::string source,
                                 std::string event, std::uint64_t id) {
  if (!enabled_) return;
  push({cycle, std::move(source), std::move(event), TraceKind::kFlowEnd,
        static_cast<double>(id)});
}

Cycle EventTrace::first(const std::string& source,
                        const std::string& event) const {
  for (const auto& e : events_) {
    if (e.source == source && e.event == event) return e.cycle;
  }
  return kNoCycle;
}

std::size_t EventTrace::count(const std::string& source,
                              const std::string& event) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.source == source && e.event == event) ++n;
  }
  return n;
}

void EventTrace::dump(std::ostream& os) const {
  for (const auto& e : events_) {
    os << e.cycle << '\t' << e.source << '\t' << e.event;
    if (e.kind == TraceKind::kCounter) os << '\t' << e.value;
    os << '\n';
  }
}

}  // namespace axihc
