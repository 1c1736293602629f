#include "migration/moving_state.h"

#include "common/logging.h"
#include "migration/state_materializer.h"
#include "obs/trace.h"
#include "plan/plan_diff.h"

namespace jisc {

Status MovingStateStrategy::Migrate(Engine* engine,
                                    const LogicalPlan& new_plan) {
  Observability* obs = engine->config().obs;
  TraceRecorder* rec = obs != nullptr ? &obs->trace : nullptr;
  int track = engine->config().obs_track;
  PipelineExecutor& old_exec = engine->executor();
  StateSnapshot snapshot;
  PlanDiff diff;
  {
    TraceScope span(rec, "plan-diff", "migration", track);
    snapshot = old_exec.SnapshotCompleteness();
    diff = DiffPlans(new_plan, snapshot);
    span.SetArg("incomplete", static_cast<uint64_t>(diff.NumIncomplete()));
  }

  // State matching: move every state the two plans share.
  std::unique_ptr<PipelineExecutor> new_exec;
  {
    TraceScope span(rec, "state-copy", "migration", track);
    StatePool pool = old_exec.TakeAllStates();
    new_exec = std::make_unique<PipelineExecutor>(
        new_plan, engine->windows(), engine->config().exec, &pool);
  }

  // State computing: eagerly materialize everything missing, bottom-up.
  // Execution is halted throughout (this all happens inside the transition).
  Stamp stamp = engine->AllocateStamp();
  Metrics& metrics = engine->mutable_metrics();
  uint64_t inserts_before = metrics.inserts;
  {
    TraceScope span(rec, "state-compute", "migration", track);
    for (int id = 0; id < new_plan.num_nodes(); ++id) {
      Operator* op = new_exec->op(id);
      if (op->kind() == OpKind::kScan) {
        op->state().MarkComplete();
        continue;
      }
      if (diff.node_complete[id]) {
        op->state().MarkComplete();
        continue;
      }
      MaterializeStateEagerly(op, stamp, &metrics);
    }
    last_inserts_ = metrics.inserts - inserts_before;
    span.SetArg("inserts", last_inserts_);
  }
  engine->ReplaceExecutor(std::move(new_exec));
  return Status::Ok();
}

std::unique_ptr<MigrationStrategy> MakeMovingStateStrategy() {
  return std::make_unique<MovingStateStrategy>();
}

}  // namespace jisc
