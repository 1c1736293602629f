#ifndef JISC_CORE_PROCESSOR_CONFIG_H_
#define JISC_CORE_PROCESSOR_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "core/migration_strategy.h"
#include "exec/ingress_guard.h"
#include "exec/parallel_executor.h"
#include "exec/pipeline_executor.h"

namespace jisc {

class Observability;

// Every knob a query processor reads, each spelled once and read only at
// construction. MakeProcessor (workload/factory.h) takes one for any kind;
// each processor reads the fields that concern it and ignores the rest.
struct ProcessorConfig {
  PipelineExecutor::Options exec;
  // Engine: events between strategy Maintain() sweeps (completion
  // detection).
  uint64_t maintain_period = 256;
  // Engine: track Definition-2 freshness per arrival. Off yields the plain
  // symmetric-hash-join pipeline of Fig. 9a, whose transitions need a
  // strategy that does not rely on freshness (Moving State).
  bool track_freshness = true;
  // Engine load shedding (drop-newest): PushNoDrain drops arrivals beyond
  // this many buffered ones and counts them. 0 = never.
  size_t max_buffered_arrivals = 0;
  // Hash-partitioned worker shards. MakeEngineProcessor
  // (core/parallel_engine.h) builds a ParallelExecutor of single-shard
  // engines when > 1; 1 is the single-threaded equivalence oracle. Engine
  // kinds only.
  int parallelism = 1;
  // Observability bundle; nullptr (the default) keeps every clock read and
  // histogram update off the hot path (obs/observability.h). obs_track
  // labels spans and gauges: 0 = single-threaded or coordinator, shard + 1
  // for the sharded path's shard engines.
  Observability* obs = nullptr;
  int obs_track = 0;
  // Opt-in ingress guard (exec/ingress_guard.h) that the builders wrap
  // around the built processor; for the sharded path, once, in front of the
  // executor. No processor reads it.
  IngressGuard::Options ingress;
  // Fluid migration (core/migration_strategy.h): the engine kinds drain
  // their carryover in bounded batches between events, and Hybrid Track
  // defers its per-key state copy. Parallel Track has no carryover, so it
  // ignores it.
  FluidOptions fluid;
  // Parallel/Hybrid Track: events between purge-detection scans of the
  // oldest plan's states (the paper's frequent, costly checks).
  uint64_t purge_check_period = 32;
  // Sharded path only: feed queue capacity, hand-off batch size and the
  // straggler fault injection.
  ParallelExecutor::Options shards;
};

}  // namespace jisc

#endif  // JISC_CORE_PROCESSOR_CONFIG_H_
