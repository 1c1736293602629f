#ifndef JISC_MIGRATION_PARALLEL_TRACK_H_
#define JISC_MIGRATION_PARALLEL_TRACK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/processor_config.h"
#include "exec/pipeline_executor.h"
#include "exec/sink.h"
#include "exec/stream_processor.h"

namespace jisc {

// The Parallel Track Strategy [Zhu, Rundensteiner, Heineman; SIGMOD'04]
// (Section 3.3): on transition the new plan starts with empty states and
// runs *alongside* the old plan; every new tuple is processed by both (the
// 50% throughput drop), a duplicate-eliminating sink merges the outputs,
// and the old plan is discarded once its states contain only
// post-transition tuples — detected by the periodic state scan the paper
// calls out as costly.
//
// Overlapped transitions (Section 3.3, last bullet): each further
// transition adds another live plan; all of them process every tuple until
// the older ones are purged.
class ParallelTrackProcessor : public StreamProcessor {
 public:
  ParallelTrackProcessor(const LogicalPlan& plan, const WindowSpec& windows,
                         Sink* sink,
                         const ProcessorConfig& config = ProcessorConfig());

  std::string name() const override { return "parallel-track"; }
  void Push(const BaseTuple& tuple) override;
  Status RequestTransition(const LogicalPlan& new_plan) override;
  const Metrics& metrics() const override { return metrics_; }
  uint64_t StateMemory() const override;

  // True while more than one plan is live (the migration stage).
  bool migrating() const { return plans_.size() > 1; }
  size_t num_live_plans() const { return plans_.size(); }

 private:
  void CheckDiscard();

  WindowSpec windows_;
  ProcessorConfig config_;
  Metrics metrics_;
  // Delay sink sits between dedup elimination and the user sink, so each
  // output's delay covers the full per-event work across all live plans.
  OutputDelaySink obs_sink_;
  DedupSink dedup_;
  std::vector<std::unique_ptr<PipelineExecutor>> plans_;
  // boundaries_[i]: first sequence number admitted after plans_[i] started.
  // plans_[0] is discardable when no live tuple predates boundaries_[1].
  std::vector<Seq> boundaries_;
  Stamp next_stamp_ = 1;
  Seq max_seq_seen_ = 0;
  uint64_t events_since_check_ = 0;
};

}  // namespace jisc

#endif  // JISC_MIGRATION_PARALLEL_TRACK_H_
