#include "workload/runner.h"

#include "common/logging.h"

namespace jisc {

ConsumeStats Consume(StreamProcessor* proc, SyntheticSource* src, size_t n) {
  ConsumeStats stats;
  uint64_t work_before = proc->metrics().WorkUnits();
  uint64_t outputs_before = proc->metrics().outputs;
  WallTimer timer;
  for (size_t i = 0; i < n; ++i) proc->Push(src->Next());
  stats.seconds = timer.ElapsedSeconds();
  stats.tuples = n;
  stats.work_units = proc->metrics().WorkUnits() - work_before;
  stats.outputs = proc->metrics().outputs - outputs_before;
  return stats;
}

ConsumeStats ConsumeRecorded(StreamProcessor* proc,
                             const std::vector<BaseTuple>& tuples,
                             size_t begin, size_t end) {
  JISC_CHECK(begin <= end && end <= tuples.size());
  ConsumeStats stats;
  uint64_t work_before = proc->metrics().WorkUnits();
  uint64_t outputs_before = proc->metrics().outputs;
  WallTimer timer;
  for (size_t i = begin; i < end; ++i) proc->Push(tuples[i]);
  stats.seconds = timer.ElapsedSeconds();
  stats.tuples = end - begin;
  stats.work_units = proc->metrics().WorkUnits() - work_before;
  stats.outputs = proc->metrics().outputs - outputs_before;
  return stats;
}

LatencyResult MeasureTransitionLatency(StreamProcessor* proc,
                                       CountingSink* sink,
                                       const LogicalPlan& new_plan,
                                       SyntheticSource* src,
                                       size_t max_tuples) {
  LatencyResult result;
  WallTimer total;
  {
    const uint64_t work_before = proc->metrics().WorkUnits();
    WallTimer migration;
    Status s = proc->RequestTransition(new_plan);
    JISC_CHECK(s.ok()) << s.ToString();
    result.migration_seconds = migration.ElapsedSeconds();
    result.migration_work_units = proc->metrics().WorkUnits() - work_before;
  }
  uint64_t outputs_before = sink->outputs();
  for (size_t i = 0; i < max_tuples; ++i) {
    proc->Push(src->Next());
    ++result.tuples_until_output;
    if (sink->outputs() > outputs_before) break;
  }
  result.first_output_seconds = total.ElapsedSeconds();
  return result;
}

void WarmUp(StreamProcessor* proc, SyntheticSource* src, int num_streams,
            uint64_t window) {
  size_t n = static_cast<size_t>(num_streams) * window;
  for (size_t i = 0; i < n; ++i) proc->Push(src->Next());
}

}  // namespace jisc
