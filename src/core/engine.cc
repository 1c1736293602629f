#include "core/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/validate.h"
#include "obs/observability.h"
#include "obs/trace.h"

namespace jisc {

namespace {

// The telemetry registry when both observability and its telemetry option
// are on; nullptr otherwise, so every gauge site below stays one pointer
// test on the disabled path.
inline TelemetryRegistry* TelemetryOf(const ProcessorConfig& config) {
  return config.obs != nullptr ? config.obs->telemetry.get() : nullptr;
}

}  // namespace

Engine::Engine(const LogicalPlan& plan, const WindowSpec& windows, Sink* sink,
               std::unique_ptr<MigrationStrategy> strategy,
               const ProcessorConfig& config)
    : windows_(windows),
      config_(config),
      sink_(sink),
      strategy_(std::move(strategy)),
      freshness_(windows.num_streams()) {
  JISC_CHECK(strategy_ != nullptr);
  JISC_CHECK(plan.streams().size() <= windows_.num_streams());
  exec_ = std::make_unique<PipelineExecutor>(plan, windows_, config_.exec);
  WireExecutor();
}

uint64_t Engine::StateMemory() const { return StateMemoryBytes(*exec_); }

void Engine::WireExecutor() {
  if (config_.obs != nullptr) {
    obs_sink_.Wire(sink_, config_.obs);
    exec_->SetSink(&obs_sink_);
    exec_->SetObservability(config_.obs, config_.obs_track);
    if (TelemetryRegistry* telemetry = TelemetryOf(config_)) {
      telemetry->RegisterTracks(config_.obs_track + 1);
    }
  } else {
    exec_->SetSink(sink_);
  }
  exec_->SetMetrics(&metrics_);
  exec_->SetFreshness(config_.track_freshness ? &freshness_ : nullptr);
  exec_->SetCompletionHandler(strategy_->handler());
}

void Engine::Push(const BaseTuple& tuple) {
  if (!buffer_.empty()) Drain();
  if (TelemetryRegistry* telemetry = TelemetryOf(config_)) {
    // The coordinator owns the input gauges; a shard engine's arrivals were
    // already counted by the ParallelExecutor front-end that routed them.
    if (config_.obs_track == 0) telemetry->OnInput(tuple.seq);
  }
  Admit(tuple);
  if (++events_since_maintain_ >= config_.maintain_period) {
    events_since_maintain_ = 0;
    strategy_->Maintain(this);
    RefreshStateMemoryGauge();
  }
}

void Engine::BeginObsEvent() {
  if (config_.obs == nullptr) return;
  if (pending_transition_ns_ != 0) {
    obs_sink_.BeginEventAt(pending_transition_ns_);
    pending_transition_ns_ = 0;
  } else {
    obs_sink_.BeginEvent();
  }
}

void Engine::MaybeRunFluidBatch(Stamp stamp) {
  if (!config_.fluid.IsFluid()) return;
  if (++events_since_fluid_ < config_.fluid.batch_period) return;
  events_since_fluid_ = 0;
  if (strategy_->FluidBacklog() == 0) return;
  strategy_->RunFluidBatch(this, stamp);
  if (TelemetryRegistry* telemetry = TelemetryOf(config_)) {
    telemetry->SetMigrationBacklog(config_.obs_track,
                                   strategy_->FluidBacklog());
  }
}

void Engine::Admit(const BaseTuple& tuple) {
  BeginObsEvent();
  Stamp stamp = AllocateStamp();
  max_seq_seen_ = std::max(max_seq_seen_, tuple.seq);
  MaybeRunFluidBatch(stamp);
  strategy_->OnArrival(this, tuple, stamp);
  exec_->PushArrival(tuple, stamp);
  exec_->RunUntilIdle();
  if (TelemetryRegistry* telemetry = TelemetryOf(config_)) {
    telemetry->OnEventProcessed(config_.obs_track, tuple.seq);
  }
}

void Engine::PushExpiry(const BaseTuple& tuple) {
  if (!buffer_.empty()) Drain();
  // One external event, like an arrival: the removal cascade runs to
  // quiescence under its own stamp. Counted toward the maintain cadence so
  // sharded JISC engines still sweep completion detection under expiry-
  // heavy phases.
  BeginObsEvent();
  Stamp stamp = AllocateStamp();
  MaybeRunFluidBatch(stamp);
  exec_->PushExpiry(tuple, stamp);
  exec_->RunUntilIdle();
  if (TelemetryRegistry* telemetry = TelemetryOf(config_)) {
    // Expiries count as progress: an expiry-heavy shard is busy, not
    // stalled, and must not trip the stall watchdog.
    telemetry->OnEventProcessed(config_.obs_track, tuple.seq);
  }
  if (++events_since_maintain_ >= config_.maintain_period) {
    events_since_maintain_ = 0;
    strategy_->Maintain(this);
    RefreshStateMemoryGauge();
  }
}

void Engine::RefreshStateMemoryGauge() {
  if (TelemetryRegistry* telemetry = TelemetryOf(config_)) {
    telemetry->SetStateMemoryBytes(config_.obs_track,
                                   ApproxStateMemoryBytes(*exec_));
  }
}

void Engine::PushNoDrain(const BaseTuple& tuple) {
  if (config_.max_buffered_arrivals > 0 &&
      buffer_.size() >= config_.max_buffered_arrivals) {
    ++shed_tuples_;  // drop-newest load shedding
    return;
  }
  buffer_.push_back(tuple);
}

void Engine::Drain() {
  while (!buffer_.empty()) {
    BaseTuple t = buffer_.front();
    buffer_.pop_front();
    Admit(t);
  }
}

Status Engine::RequestTransition(const LogicalPlan& new_plan) {
  Status valid = new_plan.Validate();
  if (!valid.ok()) return valid;
  if (!(new_plan.streams() == plan().streams())) {
    return Status::InvalidArgument(
        "new plan must cover the same streams as the old plan");
  }
  // Section 4.1 (safe plan transition): all tuples received before the
  // transition are processed through the old plan first (buffer clearing).
  Observability* obs = config_.obs;
  TraceScope transition(obs ? &obs->trace : nullptr, "transition",
                        "migration", config_.obs_track);
  transition.SetArg("buffered", buffer_.size());
  {
    TraceScope drain(obs ? &obs->trace : nullptr, "drain", "migration",
                     config_.obs_track);
    Drain();
  }
  freshness_.BumpGeneration();
  ++transitions_;
  // Charge the transition's own duration to the first post-transition
  // event: its outputs are delayed by exactly this stall.
  uint64_t t_request = obs != nullptr ? obs->trace.NowNs() : 0;
  Status s = strategy_->Migrate(this, new_plan);
  if (!s.ok()) return s;
  if (obs != nullptr) pending_transition_ns_ = t_request;
  if (TelemetryRegistry* telemetry = TelemetryOf(config_)) {
    telemetry->SetMigrationBacklog(config_.obs_track,
                                   strategy_->FluidBacklog());
  }
  // The strategy installed the successor executor via ReplaceExecutor.
  return Status::Ok();
}

void Engine::ReplaceExecutor(std::unique_ptr<PipelineExecutor> exec) {
  JISC_CHECK(exec != nullptr);
  exec_ = std::move(exec);
  WireExecutor();
}

}  // namespace jisc
