// Chrome trace-event JSON exporter (the "JSON array format" understood by
// Perfetto and chrome://tracing).
//
// Renders an EventTrace — and optionally the MetricsSampler's time series as
// counter tracks — as a timeline: one process ("axihc"), one thread track
// per distinct event source (named via thread_name metadata), so a
// fig5_contention-class run shows EXBAR grants, reservation-window
// rollovers, HA job/layer slices and fault instants side by side, with
// eFIFO occupancy and bandwidth counters plotted underneath.
//
// Timestamp unit: the trace-event format counts microseconds; we emit one
// microsecond per simulated cycle, so viewer time reads directly in cycles.
#pragma once

#include <iosfwd>

#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace axihc {

/// Writes `trace` (and `metrics`' snapshots, when given) to `os` as a
/// Chrome trace-event JSON array. Records are emitted in non-decreasing
/// timestamp order; metadata records come first.
void write_chrome_trace(std::ostream& os, const EventTrace& trace,
                        const MetricsSampler* metrics = nullptr);

}  // namespace axihc
