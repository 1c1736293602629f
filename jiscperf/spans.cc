#include "spans.h"

#include <cstdio>
#include <fstream>

#include "obs/trace.h"
#include "obs/trace_export.h"

namespace jiscperf {

namespace {

struct LayerInfo {
  const char* name;
  const char* category;
};

constexpr LayerInfo kLayers[kNumLayers] = {
    {"core.push", "core"},
    {"sink.emit", "sink"},
    {"core.transition", "core"},
    {"parallel.push", "parallel"},
    {"parallel.barrier", "parallel"},
    {"state.insert", "state"},
    {"state.probe", "state"},
    {"state.remove", "state"},
    {"state.vacuum", "state"},
};

}  // namespace

void SpanLog::PrintSelfTimeTable(std::ostream& os) const {
  uint64_t all_self = 0;
  for (const LayerTotal& t : totals_) all_self += t.self_ns;
  char line[160];
  std::snprintf(line, sizeof line, "%-18s %10s %12s %12s %7s\n", "layer",
                "calls", "total_ms", "self_ms", "self%");
  os << line;
  for (int l = 0; l < kNumLayers; ++l) {
    const LayerTotal& t = totals_[l];
    if (t.calls == 0) continue;
    std::snprintf(line, sizeof line, "%-18s %10llu %12.3f %12.3f %6.1f%%\n",
                  kLayers[l].name, static_cast<unsigned long long>(t.calls),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6,
                  all_self == 0 ? 0.0 : 100.0 * static_cast<double>(t.self_ns) /
                                            static_cast<double>(all_self));
    os << line;
  }
}

void SpanLog::WriteChromeTrace(const std::string& path,
                               const std::string& process_name) const {
  std::vector<jisc::TraceSpan> out;
  out.reserve(spans_.size());
  std::vector<int> depth(spans_.size(), 0);
  const uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) depth[i] = depth[static_cast<size_t>(s.parent)] + 1;
    jisc::TraceSpan t;
    t.name = kLayers[s.layer].name;
    t.category = kLayers[s.layer].category;
    t.start_ns = s.start_ns - epoch;
    t.dur_ns = s.end_ns - s.start_ns;
    t.depth = depth[i];
    t.arg_name = "tuple";
    t.arg = s.tuple;
    out.push_back(t);
  }
  std::ofstream f(path);
  jisc::WriteChromeTrace(f, out, /*dropped=*/0, process_name);
}

}  // namespace jiscperf
