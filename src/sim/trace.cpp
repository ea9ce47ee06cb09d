#include "sim/trace.hpp"

#include <ostream>
#include <utility>

namespace axihc {

void EventTrace::push(TraceEvent e) {
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
