#include "core/parallel_engine.h"

#include <utility>

#include "common/logging.h"
#include "exec/ingress_guard.h"

namespace jisc {

std::unique_ptr<StreamProcessor> MakeEngineProcessor(
    const LogicalPlan& plan, const WindowSpec& windows, Sink* sink,
    StrategyFactory strategy_factory, const ProcessorConfig& config) {
  JISC_CHECK(strategy_factory != nullptr);
  if (config.parallelism <= 1) {
    auto engine = std::make_unique<Engine>(plan, windows, sink,
                                           strategy_factory(), config);
    return MaybeGuardProcessor(std::move(engine), config.ingress,
                               windows.num_streams(), config.obs);
  }
  ProcessorConfig shard_config = config;
  shard_config.parallelism = 1;
  shard_config.exec.external_expiry = true;
  ParallelExecutor::ShardFactory shard_factory =
      [plan, windows, shard_config,
       strategy_factory = std::move(strategy_factory)](Sink* shard_sink,
                                                       int shard) {
        // Shards share one Observability bundle (lock-free histograms,
        // mutex-guarded trace ring); each labels its spans with its own
        // track so the exported trace shows per-shard timelines. Track 0
        // stays the coordinator's.
        ProcessorConfig engine_config = shard_config;
        if (engine_config.obs != nullptr) engine_config.obs_track = shard + 1;
        return std::make_unique<Engine>(plan, windows, shard_sink,
                                        strategy_factory(), engine_config);
      };
  auto executor = std::make_unique<ParallelExecutor>(
      plan, windows, sink, shard_factory, config.parallelism, config.obs,
      config.shards);
  // The guard runs once, on the coordinator side, in front of the whole
  // executor: shard engines see an already-cleaned feed.
  return MaybeGuardProcessor(std::move(executor), config.ingress,
                             windows.num_streams(), config.obs);
}

}  // namespace jisc
