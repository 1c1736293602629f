#ifndef JISC_MIGRATION_FLUID_SCHEDULER_H_
#define JISC_MIGRATION_FLUID_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "core/migration_strategy.h"
#include "exec/metrics.h"
#include "obs/trace.h"

namespace jisc {

// Fluid migration: instead of completing all missing state inside the
// transition (all-at-once), the post-transition backlog is drained in
// bounded per-value batches scheduled between tuple waves. Each batch is
// budgeted in deterministic work units derived from the configured
// output-delay budget, so no single event is stalled behind more than one
// budget's worth of completion work; the scheduler yields (back to tuple
// processing) as soon as a batch's budget is spent.

// Deterministic work-unit budget per microsecond of configured delay
// budget. Work units (Metrics::WorkUnits) are the repo's machine-
// independent "running time" proxy; this constant is the single documented
// conversion point between the user-facing microsecond knob and the
// unit-denominated batch budget. Calibration is coarse by design — the
// budget exists to bound and equalize batch sizes deterministically, not to
// promise wall-clock accuracy.
inline constexpr uint64_t kFluidWorkUnitsPerUs = 25;

// Magic prefix of a serialized fluid migration blob ("JISCFDM1").
inline constexpr uint64_t kFluidBlobMagic = 0x4a49534346444d31ull;

// Budget accounting and batch-loop driver, shared by every fluid-capable
// strategy. Deliberately strategy-agnostic: the owner supplies a step
// callback that completes one backlog item (returning false when the
// backlog is empty) and a backlog probe for the yield telemetry.
class FluidScheduler {
 public:
  struct Stats {
    uint64_t batches = 0;       // RunBatch calls that ran at least one item
    uint64_t items = 0;         // backlog items completed
    uint64_t units = 0;         // work units spent across all batches
    uint64_t yields = 0;        // batches that ended with backlog remaining
    uint64_t max_batch_items = 0;
    uint64_t max_batch_units = 0;
    uint64_t max_item_units = 0;  // costliest single item
    // Batches whose spend had already reached the budget before their final
    // item started — impossible by construction (the loop stops after the
    // first item that crosses the budget), so tests assert this stays 0.
    uint64_t overruns = 0;
  };

  explicit FluidScheduler(FluidOptions options) : options_(options) {}

  const FluidOptions& options() const { return options_; }

  // The per-batch work-unit budget (>= 1 so a batch always makes progress).
  uint64_t BudgetUnits() const {
    uint64_t units = options_.delay_budget_us * kFluidWorkUnitsPerUs;
    return units == 0 ? 1 : units;
  }

  // Runs one batch: repeatedly invokes `step` until the backlog is empty,
  // `batch_keys` items were completed, or the work-unit spend (measured on
  // `metrics`) reaches BudgetUnits(). Records a "fluid-batch" trace span
  // and, when yielding with work left, a "fluid-yield" instant (both no-ops
  // when `rec` is null). Returns the number of items completed.
  uint64_t RunBatch(Metrics* metrics, TraceRecorder* rec, int track,
                    const std::function<bool()>& step,
                    const std::function<uint64_t()>& backlog);

  const Stats& stats() const { return stats_; }

 private:
  FluidOptions options_;
  Stats stats_;
};

// JISC with fluid draining: decorates a JiscRuntime so the lazy-migration
// backlog (every value the transition left incomplete) is ALSO completed
// proactively, in budgeted batches the engine schedules between events.
// On-probe completion stays active throughout, so correctness never depends
// on the drain; the drain only bounds how long incomplete state lingers.
//
// With JiscOptions::eager_charging this same class is the fluid Moving
// State mode: batches charge the eager counter profile and the drained key
// sets mirror what the eager pass would have materialized, so a fluid run's
// deterministic counters reproduce the all-at-once eager run's exactly.
//
// Backlog order is canonical (node ids children-first, values sorted), so
// two runs with the same feed drain identically.
class FluidJiscStrategy : public MigrationStrategy {
 public:
  FluidJiscStrategy(JiscOptions jisc, FluidOptions fluid)
      : inner_(jisc), scheduler_(fluid) {}

  // --- MigrationStrategy (forwarded to the inner runtime) ---
  std::string name() const override { return inner_.name(); }
  Status Migrate(Engine* engine, const LogicalPlan& new_plan) override;
  CompletionHandler* handler() override { return inner_.handler(); }
  void Maintain(Engine* engine) override { inner_.Maintain(engine); }
  bool ReadsFreshness() const override { return inner_.ReadsFreshness(); }
  void OnArrival(Engine* engine, const BaseTuple& base,
                 Stamp stamp) override {
    inner_.OnArrival(engine, base, stamp);
  }

  // --- fluid draining (called by the engine between events) ---
  uint64_t FluidBacklog() override;
  void RunFluidBatch(Engine* engine, Stamp stamp) override;

  // --- mid-migration checkpoints ---
  bool HasMigrationState() const override {
    return inner_.num_incomplete() > 0;
  }
  std::string SerializeMigrationState() const override;
  Status RestoreMigrationState(Engine* engine,
                               const std::string& bytes) override;

  // --- introspection (tests, benches) ---
  const FluidScheduler& scheduler() const { return scheduler_; }
  const JiscRuntime& runtime() const { return inner_; }

 private:
  // Resets the drain ledger from the inner runtime's incomplete states.
  void RebuildLedger();
  // Advances to the next op with remaining work; false when drained.
  bool EnsureCursor(Engine* engine);
  // Completes one backlog item; false when the backlog is empty.
  bool Step(Engine* engine, Stamp stamp);
  void PopOp();

  JiscRuntime inner_;
  FluidScheduler scheduler_;
  // Drain ledger: incomplete node ids (children first); the front op's
  // remaining values in cur_keys_[cur_index_..] once its cursor is built.
  std::deque<int> ops_;
  bool cursor_built_ = false;
  bool cursor_is_list_ = false;
  std::vector<JoinKey> cur_keys_;
  size_t cur_index_ = 0;
};

// Fluid-mode strategy factory. `jisc` selects the charging profile:
// default options give fluid JISC; eager_charging (+ display_name
// "moving-state") gives the fluid Moving State mode.
std::unique_ptr<MigrationStrategy> MakeFluidStrategy(JiscOptions jisc,
                                                     FluidOptions fluid);

}  // namespace jisc

#endif  // JISC_MIGRATION_FLUID_SCHEDULER_H_
