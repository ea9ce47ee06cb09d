#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace axihc {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_number(double v) {
  if (std::floor(v) == v && std::abs(v) < 9.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  std::ostringstream os;
  os << v;
  return os.str();
}

struct Record {
  Cycle ts = 0;
  std::string json;
};

/// One JSON object: {"name":…,"ph":…,"ts":…,"pid":0,"tid":…<extra>}.
Record make_record(Cycle ts, const std::string& name, char phase, int tid,
                   const std::string& extra) {
  Record r;
  r.ts = ts;
  r.json = "{\"name\":\"";
  append_escaped(r.json, name);
  r.json += "\",\"ph\":\"";
  r.json += phase;
  r.json += "\",\"ts\":" + std::to_string(ts) + ",\"pid\":0,\"tid\":" +
            std::to_string(tid) + extra + "}";
  return r;
}

Record metadata_record(const std::string& kind, int tid,
                       const std::string& label) {
  std::string extra = ",\"args\":{\"name\":\"";
  append_escaped(extra, label);
  extra += "\"}";
  return make_record(0, kind, 'M', tid, extra);
}

}  // namespace

void write_chrome_trace(std::ostream& os, const EventTrace& trace,
                        const MetricsSampler* metrics) {
  // Track assignment: tid 0 carries the counter tracks (counters are keyed
  // by name, not tid, so they can share); each event source gets tid 1+ in
  // order of first appearance.
  std::map<std::string, int> tids;
  std::vector<Record> meta;
  std::vector<Record> records;
  meta.push_back(metadata_record("process_name", 0, "axihc"));
  meta.push_back(metadata_record("thread_name", 0, "metrics"));

  auto tid_for = [&](const std::string& source) {
    auto it = tids.find(source);
    if (it != tids.end()) return it->second;
    const int tid = static_cast<int>(tids.size()) + 1;
    tids.emplace(source, tid);
    meta.push_back(metadata_record("thread_name", tid, source));
    return tid;
  };

  for (const TraceEvent& e : trace.events()) {
    const int tid = tid_for(e.source);
    switch (e.kind) {
      case TraceKind::kInstant:
        records.push_back(
            make_record(e.cycle, e.event, 'i', tid, ",\"s\":\"t\""));
        break;
      case TraceKind::kBegin:
        records.push_back(make_record(e.cycle, e.event, 'B', tid, ""));
        break;
      case TraceKind::kEnd:
        records.push_back(make_record(e.cycle, e.event, 'E', tid, ""));
        break;
      case TraceKind::kCounter:
        records.push_back(make_record(
            e.cycle, e.source + "." + e.event, 'C', 0,
            ",\"args\":{\"value\":" + json_number(e.value) + "}"));
        break;
      // Flow arrows ("s" start, "f" finish): same cat+id pairs the two ends;
      // bp:"e" binds the finish to the enclosing slice so viewers draw the
      // arrow even when the anchors are bare points.
      case TraceKind::kFlowStart:
        records.push_back(make_record(
            e.cycle, e.event, 's', tid,
            ",\"cat\":\"txn\",\"id\":" + json_number(e.value)));
        break;
      case TraceKind::kFlowEnd:
        records.push_back(make_record(
            e.cycle, e.event, 'f', tid,
            ",\"cat\":\"txn\",\"id\":" + json_number(e.value) +
                ",\"bp\":\"e\""));
        break;
    }
  }

  if (metrics != nullptr) {
    const MetricsRegistry& reg = metrics->registry();
    for (const MetricsSnapshot& snap : metrics->snapshots()) {
      for (std::size_t i = 0; i < snap.values.size(); ++i) {
        records.push_back(make_record(
            snap.cycle, reg.name(i), 'C', 0,
            ",\"args\":{\"value\":" + json_number(snap.values[i]) + "}"));
      }
    }
  }

  // EventTrace records are appended in simulation order and metric samples
  // are periodic, but the two streams interleave: merge to a single
  // non-decreasing timeline (stable, so same-cycle order is preserved).
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) { return a.ts < b.ts; });

  os << "[\n";
  bool first = true;
  for (const auto* list : {&meta, &records}) {
    for (const Record& r : *list) {
      if (!first) os << ",\n";
      first = false;
      os << r.json;
    }
  }
  os << "\n]\n";
}

}  // namespace axihc
