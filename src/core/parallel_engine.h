#ifndef JISC_CORE_PARALLEL_ENGINE_H_
#define JISC_CORE_PARALLEL_ENGINE_H_

#include <functional>
#include <memory>

#include "core/engine.h"
#include "core/migration_strategy.h"
#include "core/processor_config.h"

namespace jisc {

// Builds one migration strategy instance. The sharded path needs a fresh
// strategy per shard (a strategy holds per-engine state), hence a factory
// rather than a single instance.
using StrategyFactory = std::function<std::unique_ptr<MigrationStrategy>()>;

// The one entry point that routes between the two execution paths:
//
//  * config.parallelism <= 1: a plain single-threaded Engine — the default
//    and the equivalence oracle;
//  * config.parallelism  > 1: a ParallelExecutor over `parallelism`
//    hash-partitioned shards (config.shards), each an Engine in
//    external-expiry mode with its own strategy instance, all delivering
//    into `sink` through a serializing adapter.
//
// Either path is wrapped in an ingress guard when config.ingress is
// enabled. The sharded path requires a shardable plan (every stateful
// operator matches on join-key equality; no theta/NLJ joins).
//
// Threading contract: the returned processor's public surface must be
// driven by one coordinator thread — the sharded path's entry points are
// marked JISC_COORDINATOR_ONLY on ParallelExecutor (see
// src/common/thread_annotations.h and DESIGN.md "Threading model &
// capability map"); only ParallelExecutor::MetricsApprox() may be called
// from other threads.
std::unique_ptr<StreamProcessor> MakeEngineProcessor(
    const LogicalPlan& plan, const WindowSpec& windows, Sink* sink,
    StrategyFactory strategy_factory, const ProcessorConfig& config);

}  // namespace jisc

#endif  // JISC_CORE_PARALLEL_ENGINE_H_
