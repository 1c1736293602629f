#ifndef JISCPERF_WORKLOAD_H_
#define JISCPERF_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "plan/logical_plan.h"
#include "stream/window.h"
#include "types/tuple.h"

namespace jiscperf {

// One benchmark workload: a 4-way equi-join on one key, the shape of its
// input, and how a run drives it. Every pass rebuilds the processor, pushes
// the warm-up tuples (set-up), then the measured tuples.
struct WorkloadSpec {
  const char* name = "";
  int streams = 4;
  // Count window per stream.
  uint64_t window = 0;
  // Keys are drawn independently from [0, key_domain): uniformly when
  // zipf_s == 0, else with Zipf(zipf_s) frequencies, key 0 the hottest.
  uint64_t key_domain = 0;
  double zipf_s = 0;
  // Independent inputs generated from the seed; round r of a run uses
  // input r % inputs. A pass over Zipf keys costs what its windows' hot
  // buckets happen to hold, so one input is too few windows to stand for
  // its seed: runs would differ by the input more than by the engine.
  int inputs = 1;
  // Tuples pushed while setting up (fills every window) and measured
  // tuples per pass.
  uint64_t warmup_tuples = 0;
  uint64_t pass_tuples = 0;
  // Closed-loop throughput is timed per chunk, and open-loop latency
  // summarised per segment, of this many measured tuples, so a rare host
  // stall moves one chunk or segment, not the run. With transitions, only
  // the segments that start with one are summarised. Single-threaded, a
  // host speed reading is taken between every two.
  uint64_t segment_tuples = 0;
  // A transition is requested before every transition_every-th measured
  // tuple, alternating the worst-case reversal and the initial plan.
  // 0 = never.
  uint64_t transition_every = 0;
  // 1 = the single-threaded engine; > 1 = ParallelExecutor shards.
  int shards = 1;
  // Closed-loop passes per round, before its one open-loop pass. A sharded
  // closed pass is one throughput sample and lasts a tenth of an open one.
  int closed_passes = 1;
  // Fixed open-loop arrival rate of the latency pass, tuples per second.
  double open_loop_rate = 0;
};

// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Input `index` of the seed: warm-up tuples followed by one pass of
// measured tuples, generated from `seed` and `index` alone. Seq numbers
// run 1..N in order; stream interleave is uniform random.
std::vector<jisc::BaseTuple> GenerateInput(const WorkloadSpec& spec,
                                           uint64_t seed, int index = 0);

// The initial left-deep plan (S0, S1, ..., Sn-1) and its worst-case
// reversal.
jisc::LogicalPlan InitialPlan(const WorkloadSpec& spec);
jisc::LogicalPlan ReversedPlan(const WorkloadSpec& spec);

// True when a transition is requested before measured tuple `i`
// (0-based); the n-th transition (1-based) goes to the reversed plan when n
// is odd and back to the initial plan when n is even.
inline bool TransitionBefore(const WorkloadSpec& spec, uint64_t i) {
  return spec.transition_every != 0 && i != 0 &&
         i % spec.transition_every == 0;
}

jisc::WindowSpec Windows(const WorkloadSpec& spec);

}  // namespace jiscperf

#endif  // JISCPERF_WORKLOAD_H_
