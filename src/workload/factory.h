#ifndef JISC_WORKLOAD_FACTORY_H_
#define JISC_WORKLOAD_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/parallel_engine.h"
#include "core/processor_config.h"
#include "exec/sink.h"
#include "exec/stream_processor.h"
#include "plan/logical_plan.h"
#include "stream/window.h"

namespace jisc {

// The query processors compared in the paper's evaluation (Section 6).
enum class ProcessorKind {
  kJisc,            // the paper's contribution (on-probe completion)
  kJiscFirstReceipt,  // Section 4.4 reading: complete per value on receipt
  kMovingState,     // halt + eager state computation [4]
  kParallelTrack,   // old and new plans side by side [4]
  kHybridTrack,     // Parallel Track + Moving-State state matching [5, 6]
  kCacq,            // eddy + SteMs, no intermediate state [3]
  kMJoin,           // n-ary symmetric join, no intermediate state [11, 1]
  kStairsEager,     // STAIRs with eager Promote/Demote [19]
  kStairsJisc,      // JISC applied to STAIRs (Section 4.6)
  kStaticPipeline,  // plain symmetric-hash-join pipeline (Fig. 9a baseline);
                    // rejects no transitions (Moving State strategy)
};

const char* ProcessorKindName(ProcessorKind kind);

// All pipelined-strategy kinds (for benches comparing the paper's main
// three: JISC / CACQ / Parallel Track, plus Moving State for latency).
std::vector<ProcessorKind> PipelineStrategyKinds();

// True for the kinds built on the single-plan Engine (kJisc,
// kJiscFirstReceipt, kMovingState, kStaticPipeline) — the ones that accept
// parallelism > 1 and support checkpoint/restore.
bool IsEngineKind(ProcessorKind kind);

// An engine kind's build recipe: the migration-strategy factory the kind
// wires in (the fluid-draining decorator when config.fluid is fluid, for
// the migrating kinds), and the config it runs with. MakeProcessor and the
// scenario runner's
// checkpoint/restore action both build from it, so a restored engine gets
// the original's strategy and settings. CHECK-fails on non-engine kinds.
struct EngineRecipe {
  StrategyFactory strategy_factory;
  ProcessorConfig config;
};
EngineRecipe EngineRecipeFor(ProcessorKind kind,
                             const ProcessorConfig& config);

// A processor wired to a counting sink.
struct BuiltProcessor {
  std::unique_ptr<StreamProcessor> processor;
  std::unique_ptr<CountingSink> sink;
};

// Builds `kind` from `config` (core/processor_config.h documents which
// processors read which fields). Routing rules:
//  * parallelism > 1 is for the engine kinds only (CHECK-fails otherwise);
//  * an enabled config.ingress wraps any kind in a GuardedProcessor, which
//    reports to config.obs;
//  * the eddy family (kCacq, kMJoin, kStairs*) reads nothing else.
BuiltProcessor MakeProcessor(ProcessorKind kind, const LogicalPlan& plan,
                             const WindowSpec& windows,
                             const ProcessorConfig& config = ProcessorConfig());

}  // namespace jisc

#endif  // JISC_WORKLOAD_FACTORY_H_
