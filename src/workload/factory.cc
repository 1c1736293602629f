#include "workload/factory.h"

#include <utility>

#include "common/logging.h"
#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "core/parallel_engine.h"
#include "eddy/cacq.h"
#include "eddy/mjoin.h"
#include "eddy/stairs.h"
#include "migration/hybrid_track.h"
#include "migration/moving_state.h"
#include "migration/parallel_track.h"

namespace jisc {

const char* ProcessorKindName(ProcessorKind kind) {
  switch (kind) {
    case ProcessorKind::kJisc:
      return "jisc";
    case ProcessorKind::kJiscFirstReceipt:
      return "jisc-first-receipt";
    case ProcessorKind::kMovingState:
      return "moving-state";
    case ProcessorKind::kParallelTrack:
      return "parallel-track";
    case ProcessorKind::kHybridTrack:
      return "hybrid-track";
    case ProcessorKind::kCacq:
      return "cacq";
    case ProcessorKind::kMJoin:
      return "mjoin";
    case ProcessorKind::kStairsEager:
      return "stairs-eager";
    case ProcessorKind::kStairsJisc:
      return "stairs-jisc";
    case ProcessorKind::kStaticPipeline:
      return "pipeline-shj";
  }
  return "?";
}

std::vector<ProcessorKind> PipelineStrategyKinds() {
  return {ProcessorKind::kJisc, ProcessorKind::kCacq,
          ProcessorKind::kParallelTrack, ProcessorKind::kMovingState};
}

bool IsEngineKind(ProcessorKind kind) {
  return kind == ProcessorKind::kJisc ||
         kind == ProcessorKind::kJiscFirstReceipt ||
         kind == ProcessorKind::kMovingState ||
         kind == ProcessorKind::kStaticPipeline;
}

namespace {

StrategyFactory EngineStrategyFactory(ProcessorKind kind,
                                      const FluidOptions& fluid) {
  const bool is_fluid = fluid.IsFluid();
  switch (kind) {
    case ProcessorKind::kJiscFirstReceipt: {
      JiscOptions j;
      j.completion_mode = JiscOptions::CompletionMode::kOnFirstReceipt;
      if (is_fluid) return [j, fluid] { return MakeFluidStrategy(j, fluid); };
      return [j] { return MakeJiscStrategy(j); };
    }
    case ProcessorKind::kMovingState:
      if (is_fluid) {
        // Fluid Moving State: the JISC machinery drains the carryover in
        // batches, but charges the eager counter profile and drains exactly
        // the key sets the halted eager pass would have materialized, so
        // deterministic counters match the all-at-once eager run.
        JiscOptions j;
        j.eager_charging = true;
        j.display_name = "moving-state";
        return [j, fluid] { return MakeFluidStrategy(j, fluid); };
      }
      return [] { return MakeMovingStateStrategy(); };
    case ProcessorKind::kStaticPipeline:
      // Never migrates; fluid has nothing to drain.
      return [] { return MakeMovingStateStrategy(); };
    case ProcessorKind::kJisc:
    default:
      if (is_fluid) {
        return [fluid] { return MakeFluidStrategy(JiscOptions(), fluid); };
      }
      return [] { return MakeJiscStrategy(); };
  }
}

}  // namespace

EngineRecipe EngineRecipeFor(ProcessorKind kind,
                             const ProcessorConfig& config) {
  JISC_CHECK(IsEngineKind(kind))
      << ProcessorKindName(kind) << " is not an engine kind";
  return EngineRecipe{EngineStrategyFactory(kind, config.fluid), config};
}

BuiltProcessor MakeProcessor(ProcessorKind kind, const LogicalPlan& plan,
                             const WindowSpec& windows,
                             const ProcessorConfig& config) {
  BuiltProcessor built;
  built.sink = std::make_unique<CountingSink>();
  JISC_CHECK(config.parallelism <= 1 || IsEngineKind(kind))
      << ProcessorKindName(kind) << " does not support parallelism";
  switch (kind) {
    case ProcessorKind::kJisc:
    case ProcessorKind::kJiscFirstReceipt:
    case ProcessorKind::kMovingState:
    case ProcessorKind::kStaticPipeline: {
      // MakeEngineProcessor applies the ingress guard itself, so it also
      // fronts the sharded executor.
      EngineRecipe recipe = EngineRecipeFor(kind, config);
      built.processor = MakeEngineProcessor(plan, windows, built.sink.get(),
                                            std::move(recipe.strategy_factory),
                                            recipe.config);
      return built;
    }
    case ProcessorKind::kParallelTrack:
      built.processor = std::make_unique<ParallelTrackProcessor>(
          plan, windows, built.sink.get(), config);
      break;
    case ProcessorKind::kHybridTrack:
      built.processor = std::make_unique<HybridTrackProcessor>(
          plan, windows, built.sink.get(), config);
      break;
    case ProcessorKind::kCacq:
      built.processor = std::make_unique<CacqExecutor>(plan, windows,
                                                       built.sink.get());
      break;
    case ProcessorKind::kMJoin:
      built.processor = std::make_unique<MJoinExecutor>(plan, windows,
                                                        built.sink.get());
      break;
    case ProcessorKind::kStairsEager:
      built.processor = std::make_unique<StairsExecutor>(
          plan, windows, built.sink.get(),
          StairsExecutor::MigrationPolicy::kEager);
      break;
    case ProcessorKind::kStairsJisc:
      built.processor = std::make_unique<StairsExecutor>(
          plan, windows, built.sink.get(),
          StairsExecutor::MigrationPolicy::kLazyJisc);
      break;
  }
  built.processor =
      MaybeGuardProcessor(std::move(built.processor), config.ingress,
                          windows.num_streams(), config.obs);
  return built;
}

}  // namespace jisc
