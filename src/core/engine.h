#ifndef JISC_CORE_ENGINE_H_
#define JISC_CORE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "core/freshness_tracker.h"
#include "core/migration_strategy.h"
#include "core/processor_config.h"
#include "exec/pipeline_executor.h"
#include "exec/stream_processor.h"

namespace jisc {

// The pipelined continuous-query engine: one live plan, event-driven
// execution, and pluggable plan migration (Moving State or JISC; the
// Parallel Track strategy runs several plans and has its own processor).
//
// Event model: every Push is one external event. The arrival is enqueued at
// its stream's scan and the cascade (including window expiry) is processed
// to quiescence before the call returns, so queues are empty between
// events. PushNoDrain/Drain expose the buffered mode used to exercise the
// Section 4.1 queue-clearing phase explicitly.
class Engine : public StreamProcessor {
 public:
  // Kept as a name for the config: the benchmark under jiscperf/ spells it.
  using Options = ProcessorConfig;

  Engine(const LogicalPlan& plan, const WindowSpec& windows, Sink* sink,
         std::unique_ptr<MigrationStrategy> strategy,
         const ProcessorConfig& config = ProcessorConfig());

  // --- StreamProcessor ---
  std::string name() const override { return strategy_->name(); }
  void Push(const BaseTuple& tuple) override;
  // External-expiry mode only (exec.external_expiry): one expiry event,
  // processed to quiescence like an arrival.
  void PushExpiry(const BaseTuple& tuple) override;
  Status RequestTransition(const LogicalPlan& new_plan) override;
  const Metrics& metrics() const override { return metrics_; }
  uint64_t StateMemory() const override;

  // Buffered admission: appends to the engine's arrival queue without
  // processing; Drain() admits the buffered events one at a time (each
  // cascade runs to quiescence before the next event) through the current
  // plan -- the input-queue model of Section 2.1 / 4.1.
  void PushNoDrain(const BaseTuple& tuple);
  void Drain();
  size_t buffered() const { return buffer_.size(); }

  // --- accessors ---
  PipelineExecutor& executor() { return *exec_; }
  const LogicalPlan& plan() const { return exec_->plan(); }
  const WindowSpec& windows() const { return windows_; }
  const ProcessorConfig& config() const { return config_; }
  Metrics& mutable_metrics() { return metrics_; }
  FreshnessTracker& freshness() { return freshness_; }
  MigrationStrategy& strategy() { return *strategy_; }
  // The user-facing sink (never the internal OutputDelaySink wrapper).
  Sink* sink() { return sink_; }
  Seq max_seq_seen() const { return max_seq_seen_; }
  uint64_t transitions() const { return transitions_; }
  uint64_t shed_tuples() const { return shed_tuples_; }

  // --- strategy support ---
  // Installs a successor executor (built by the strategy) and rewires the
  // sink/metrics/handler/freshness environment on it.
  void ReplaceExecutor(std::unique_ptr<PipelineExecutor> exec);
  // Allocates the next global event stamp (the transition itself consumes
  // one, so completion-materialized entries sort before later arrivals).
  Stamp AllocateStamp() { return next_stamp_++; }
  Stamp next_stamp() const { return next_stamp_; }
  // Checkpoint-restore support: resets the event clocks so a restored
  // engine continues exactly where the checkpointed one stopped.
  void RestoreClocks(Stamp next_stamp, Seq max_seq) {
    next_stamp_ = next_stamp;
    max_seq_seen_ = max_seq;
  }

 private:
  void WireExecutor();
  // Admits one event and processes its cascade to quiescence.
  void Admit(const BaseTuple& tuple);
  // Marks the event's admission on the output-delay sink; the first event
  // after a transition is backdated to the transition request, charging the
  // stall to its outputs.
  void BeginObsEvent();
  // Runs one fluid completion batch if due (config_.fluid cadence) and the
  // strategy has backlog; refreshes the migration-backlog gauge. Called
  // before the event is processed, so the batch cost lands in that event's
  // output delay.
  void MaybeRunFluidBatch(Stamp stamp);
  // Updates this track's telemetry state-memory gauge (no-op when telemetry
  // is off). Called on the maintain cadence, not per event: the estimate is
  // O(num_ops) and a gauge only needs sampling-rate freshness.
  void RefreshStateMemoryGauge();

  WindowSpec windows_;
  ProcessorConfig config_;
  Sink* sink_;
  // Interposed between the executor and sink_ when config_.obs is set:
  // stamps each output with its delay since event admission.
  OutputDelaySink obs_sink_;
  std::unique_ptr<MigrationStrategy> strategy_;
  Metrics metrics_;
  FreshnessTracker freshness_;
  std::unique_ptr<PipelineExecutor> exec_;
  std::deque<BaseTuple> buffer_;
  Stamp next_stamp_ = 1;
  Seq max_seq_seen_ = 0;
  uint64_t transitions_ = 0;
  uint64_t shed_tuples_ = 0;
  uint64_t events_since_maintain_ = 0;
  uint64_t events_since_fluid_ = 0;
  // Trace-clock reading taken when a transition was requested; consumed by
  // the next BeginObsEvent. 0 = none pending.
  uint64_t pending_transition_ns_ = 0;
};

}  // namespace jisc

#endif  // JISC_CORE_ENGINE_H_
