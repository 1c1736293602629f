#ifndef JISC_CORE_MIGRATION_STRATEGY_H_
#define JISC_CORE_MIGRATION_STRATEGY_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"
#include "types/tuple.h"

namespace jisc {

class Engine;

// Fluid migration (latency-bounded state carryover): instead of finishing
// all completion/carryover work inside the transition (or leaving it to
// on-demand probes alone), the migration backlog is split into bounded
// per-key batches the engine schedules between tuple waves. Each batch is
// capped both by a key count and by an output-delay budget measured in
// deterministic work units (never wall clock, so fluid runs stay
// byte-reproducible); when the budget is spent the scheduler yields back
// to tuple processing.
struct FluidOptions {
  enum class Mode {
    kAllAtOnce,  // classic behaviour: no batching, no scheduler
    kFluid,      // batched carryover between tuple waves
  };
  Mode mode = Mode::kAllAtOnce;
  // Maximum backlog items (keys, or snapshot key-groups) completed per
  // batch. 0 means unbounded ("infinity"), which — combined with kFluid —
  // still degenerates to the all-at-once code path: IsFluid() is false, so
  // no scheduler is ever constructed and no engine hook fires.
  uint64_t batch_keys = 64;
  // Per-batch output-delay budget. Converted to deterministic work units
  // via kFluidWorkUnitsPerUs (migration/fluid_scheduler.h); a batch always
  // completes at least one item, then stops as soon as the budget is spent.
  uint64_t delay_budget_us = 50;
  // Events between batches (1 = a batch before every admitted event).
  uint64_t batch_period = 1;

  bool IsFluid() const { return mode == Mode::kFluid && batch_keys != 0; }
};

// Plan-migration policy plugged into the Engine. Invoked after the engine
// has drained all operator queues through the old plan (the buffer-clearing
// phase of Section 4.1, shared by JISC and Moving State).
class MigrationStrategy {
 public:
  virtual ~MigrationStrategy() = default;

  virtual std::string name() const = 0;

  // Rebuilds the engine's executor for `new_plan`, carrying over / computing
  // states per the strategy's policy. The engine rewires sink, metrics and
  // handlers on the executor the strategy installs.
  virtual Status Migrate(Engine* engine, const LogicalPlan& new_plan) = 0;

  // The completion handler operators consult when probing incomplete states
  // (JISC only; others never run with incomplete states).
  virtual CompletionHandler* handler() { return nullptr; }

  // Periodic housekeeping (completion detection sweeps). Called by the
  // engine every `maintain_period` events.
  virtual void Maintain(Engine* engine) { (void)engine; }

  // True when the strategy reads Definition-2 freshness marks; the engine
  // marks arrivals only for such a strategy.
  virtual bool ReadsFreshness() const { return false; }

  // Pre-admission hook, called before each arrival is processed.
  virtual void OnArrival(Engine* engine, const BaseTuple& base, Stamp stamp) {
    (void)engine;
    (void)base;
    (void)stamp;
  }

  // --- fluid migration (see FluidOptions) ---

  // Remaining migration backlog items (keys / key groups still to be
  // carried over or completed proactively). 0 means no fluid work pending;
  // the engine only calls RunFluidBatch while this is positive.
  virtual uint64_t FluidBacklog() { return 0; }

  // Runs one bounded batch of backlog work at event stamp `stamp` (the
  // stamp of the arrival about to be admitted, so batched completion uses
  // exactly the visibility an on-probe completion at this event would).
  virtual void RunFluidBatch(Engine* engine, Stamp stamp) {
    (void)engine;
    (void)stamp;
  }

  // --- mid-migration checkpoint support (fluid checkpoints) ---

  // True when the strategy can serialize its in-flight migration
  // bookkeeping (trackers, backlog ledger, scheduler) so a checkpoint
  // taken mid-fluid-batch can be restored and completed.
  virtual bool HasMigrationState() const { return false; }

  // Canonical bytes of the in-flight migration bookkeeping. Only called
  // when HasMigrationState() is true.
  virtual std::string SerializeMigrationState() const { return std::string(); }

  // Restores the bookkeeping serialized by SerializeMigrationState on a
  // freshly restored engine (states, clocks and completeness flags already
  // in place). Corrupted bytes must be rejected with InvalidArgument.
  virtual Status RestoreMigrationState(Engine* engine,
                                       const std::string& bytes) {
    (void)engine;
    (void)bytes;
    return Status::Unimplemented("strategy has no migration state");
  }
};

}  // namespace jisc

#endif  // JISC_CORE_MIGRATION_STRATEGY_H_
