#ifndef JISC_WORKLOAD_RUNNER_H_
#define JISC_WORKLOAD_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/timer.h"
#include "exec/stream_processor.h"
#include "stream/synthetic_source.h"
#include "workload/factory.h"

namespace jisc {

// Measurement helpers shared by the benchmark binaries. All figure benches
// follow the paper's methodology (Section 6): uniform data, round-robin
// streams, forced transitions, wall time plus deterministic work units.

struct ConsumeStats {
  double seconds = 0;
  uint64_t tuples = 0;
  uint64_t work_units = 0;  // Metrics::WorkUnits delta
  uint64_t outputs = 0;
};

// Pushes the next `n` tuples of `src` into `proc`, timed.
ConsumeStats Consume(StreamProcessor* proc, SyntheticSource* src, size_t n);

// Pushes a prerecorded tuple sequence, timed (used when several strategies
// must see the identical sequence).
ConsumeStats ConsumeRecorded(StreamProcessor* proc,
                             const std::vector<BaseTuple>& tuples,
                             size_t begin, size_t end);

// Output latency probe (Fig. 10): wall time from the moment a transition is
// requested until the first output tuple afterwards. The transition runs
// synchronously inside RequestTransition, so Moving State's eager state
// computation is included — exactly the latency the paper measures.
struct LatencyResult {
  double migration_seconds = 0;   // inside RequestTransition
  // WorkUnits() spent inside RequestTransition: Moving State's eager
  // recomputation, nothing for JISC's lazy transition. Deterministic,
  // unlike migration_seconds.
  uint64_t migration_work_units = 0;
  double first_output_seconds = 0;  // trigger -> first output (>= migration)
  uint64_t tuples_until_output = 0;
};
LatencyResult MeasureTransitionLatency(StreamProcessor* proc,
                                       CountingSink* sink,
                                       const LogicalPlan& new_plan,
                                       SyntheticSource* src,
                                       size_t max_tuples);

// Fills every stream's window: pushes window*streams tuples.
void WarmUp(StreamProcessor* proc, SyntheticSource* src, int num_streams,
            uint64_t window);

}  // namespace jisc

#endif  // JISC_WORKLOAD_RUNNER_H_
