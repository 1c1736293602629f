#include "migration/parallel_track.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/validate.h"
#include "obs/trace.h"

namespace jisc {

ParallelTrackProcessor::ParallelTrackProcessor(const LogicalPlan& plan,
                                               const WindowSpec& windows,
                                               Sink* sink,
                                               const ProcessorConfig& config)
    : windows_(windows),
      config_(config),
      dedup_(config.obs != nullptr ? static_cast<Sink*>(&obs_sink_) : sink) {
  if (config_.obs != nullptr) obs_sink_.Wire(sink, config_.obs);
  dedup_.set_metrics(&metrics_);
  auto exec =
      std::make_unique<PipelineExecutor>(plan, windows_, config_.exec);
  exec->SetSink(&dedup_);
  exec->SetMetrics(&metrics_);
  exec->SetObservability(config_.obs, config_.obs_track);
  plans_.push_back(std::move(exec));
  boundaries_.push_back(0);
}

void ParallelTrackProcessor::Push(const BaseTuple& tuple) {
  if (config_.obs != nullptr) obs_sink_.BeginEvent();
  Stamp stamp = next_stamp_++;
  max_seq_seen_ = std::max(max_seq_seen_, tuple.seq);
  // Every live plan processes every tuple (the migration-stage throughput
  // drop comes from exactly this).
  for (auto& plan : plans_) {
    plan->PushArrival(tuple, stamp);
    plan->RunUntilIdle();
  }
  if (migrating() && ++events_since_check_ >= config_.purge_check_period) {
    events_since_check_ = 0;
    CheckDiscard();
  }
}

Status ParallelTrackProcessor::RequestTransition(const LogicalPlan& new_plan) {
  Status valid = new_plan.Validate();
  if (!valid.ok()) return valid;
  for (int id = 0; id < new_plan.num_nodes(); ++id) {
    OpKind k = new_plan.node(id).kind;
    if (k == OpKind::kSetDifference || k == OpKind::kSemiJoin) {
      // The Parallel Track duplicate elimination assumes monotone
      // (join-only) output; the paper presents it for join plans.
      return Status::Unimplemented(
          "Parallel Track supports join plans only");
    }
  }
  if (!(new_plan.streams() == plans_.front()->plan().streams())) {
    return Status::InvalidArgument(
        "new plan must cover the same streams as the old plan");
  }
  // The new plan starts from scratch: empty states, empty windows.
  Observability* obs = config_.obs;
  TraceScope span(obs != nullptr ? &obs->trace : nullptr, "transition",
                  "migration", config_.obs_track);
  auto exec =
      std::make_unique<PipelineExecutor>(new_plan, windows_, config_.exec);
  exec->SetSink(&dedup_);
  exec->SetMetrics(&metrics_);
  exec->SetObservability(config_.obs, config_.obs_track);
  plans_.push_back(std::move(exec));
  boundaries_.push_back(max_seq_seen_ + 1);
  span.SetArg("live_plans", plans_.size());
  return Status::Ok();
}

uint64_t ParallelTrackProcessor::StateMemory() const {
  uint64_t bytes = 0;
  for (const auto& plan : plans_) bytes += StateMemoryBytes(*plan);
  return bytes;
}

void ParallelTrackProcessor::CheckDiscard() {
  Observability* obs = config_.obs;
  TraceRecorder* rec = obs != nullptr ? &obs->trace : nullptr;
  while (plans_.size() > 1) {
    // plans_[0] is redundant once every tuple it still holds was admitted
    // after plans_[1] started (then plans_[1] has seen everything live).
    bool purgeable;
    {
      TraceScope span(rec, "purge-scan", "migration", config_.obs_track);
      purgeable = plans_.front()->AllStatesNewerThan(boundaries_[1]);
    }
    if (!purgeable) break;
    // Release the discarded plan's share of the dedup counts: its live
    // results remain covered by the surviving plans.
    TraceScope span(rec, "plan-discard", "migration", config_.obs_track);
    plans_.front()->root()->state().ForEachLive(
        [this](const Tuple& t) { dedup_.NoteDiscard(t); });
    plans_.erase(plans_.begin());
    boundaries_.erase(boundaries_.begin());
  }
}

}  // namespace jisc
