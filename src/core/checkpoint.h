#ifndef JISC_CORE_CHECKPOINT_H_
#define JISC_CORE_CHECKPOINT_H_

#include <memory>
#include <string>

#include "core/engine.h"

namespace jisc {

// Engine state checkpointing. A checkpoint captures the plan, window
// specification, event clocks, and every operator state's live entries;
// restoring it yields an engine whose future behaviour is
// tuple-for-tuple identical to the original's (same outputs, same expiry
// schedule).
//
// Checkpoints require quiescence: the engine must have no buffered
// arrivals and no incomplete states (i.e., not be mid-migration) — the
// transient JISC bookkeeping (freshness, completion trackers) is then
// empty by construction and need not be captured.
StatusOr<std::string> CheckpointEngine(Engine& engine);

// Rebuilds an engine from a checkpoint. `sink`, `strategy` and `config`
// are supplied fresh (they are behaviour, not state); `config.exec` must
// match the checkpointed query's predicate configuration. Metrics restart
// from zero.
StatusOr<std::unique_ptr<Engine>> RestoreEngine(
    const std::string& bytes, Sink* sink,
    std::unique_ptr<MigrationStrategy> strategy,
    const ProcessorConfig& config = ProcessorConfig());

// Checkpoint of an ingress-guarded engine (exec/ingress_guard.h): the
// guard's canonical bytes (dedup windows, reorder buffer, clock, stats)
// followed by the inner engine's checkpoint. The engine-side quiescence
// rules apply unchanged; the guard's reorder buffer may be NON-empty —
// tuples held there have not been admitted yet, so they are guard state,
// not engine state (this is exactly the checkpoint-mid-reorder case).
// The wrapped processor must be a single-threaded Engine.
StatusOr<std::string> CheckpointGuardedEngine(GuardedProcessor& guarded);

// Rebuilds the guarded engine: the guard resumes with its buffered tuples
// and dedup history intact, the engine exactly as RestoreEngine would.
// The restored guard's telemetry hookup follows config.obs (nullptr or
// telemetry-off = no gauge writes), on the coordinator track; the guard's
// own settings come from the bytes, not from config.ingress.
StatusOr<std::unique_ptr<GuardedProcessor>> RestoreGuardedEngine(
    const std::string& bytes, Sink* sink,
    std::unique_ptr<MigrationStrategy> strategy,
    const ProcessorConfig& config = ProcessorConfig());

}  // namespace jisc

#endif  // JISC_CORE_CHECKPOINT_H_
