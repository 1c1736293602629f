#ifndef JISC_MIGRATION_HYBRID_TRACK_H_
#define JISC_MIGRATION_HYBRID_TRACK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "core/processor_config.h"
#include "exec/pipeline_executor.h"
#include "exec/sink.h"
#include "exec/stream_processor.h"
#include "migration/fluid_scheduler.h"

namespace jisc {

// The hybrid migration family the paper's Section 3.3 cites ([5, 6]):
// Parallel Track shortened by Moving-State-style state matching. On a
// transition the new plan does NOT start empty — every state it shares with
// the old plan is deep-copied into it — so the new plan produces a larger
// share of the results from the start and the migration stage is shorter
// than plain Parallel Track's. Everything else is inherited from Parallel
// Track, drawbacks included (the paper's point): every tuple is still
// processed by every live plan, the duplicate-eliminating sink still runs,
// and the periodic purge scans still decide when the old plan dies.
class HybridTrackProcessor : public StreamProcessor {
 public:
  // With config.fluid on, the copy of shared hash-join states is drained
  // per key in budgeted batches between tuples (migration/fluid_scheduler.h).
  // Scans and list states are still copied at the transition: count-window
  // eviction and theta probes are not key-local.
  HybridTrackProcessor(const LogicalPlan& plan, const WindowSpec& windows,
                       Sink* sink,
                       const ProcessorConfig& config = ProcessorConfig());

  std::string name() const override { return "hybrid-track"; }
  void Push(const BaseTuple& tuple) override;
  Status RequestTransition(const LogicalPlan& new_plan) override;
  const Metrics& metrics() const override { return metrics_; }
  uint64_t StateMemory() const override;

  bool migrating() const { return plans_.size() > 1; }
  size_t num_live_plans() const { return plans_.size(); }
  // States deep-copied into the newest plan at its transition.
  uint64_t last_states_copied() const { return last_states_copied_; }

  // --- fluid introspection (tests, benches) ---
  // Deferred copy-ins still pending (0 outside a fluid episode).
  uint64_t FluidCopyBacklog() const;
  const FluidScheduler& fluid_scheduler() const { return fluid_sched_; }

 private:
  // One deferred state-matching copy: a snapshot of the donor state taken
  // at the transition, moved into the adopting plan one key at a time.
  // Keys probed by an arrival are copied first (EnsureCopied), the rest
  // drain in budgeted scheduler batches; entries whose base tuples have
  // already expired from the new plan's (eagerly copied) scan windows are
  // dropped instead of inserted.
  struct PendingCopy {
    int node_id = 0;  // node in the NEWEST plan
    bool is_root = false;
    std::unique_ptr<OperatorState> snapshot;
    std::vector<JoinKey> keys;  // sorted; [next_key..) not yet drained
    size_t next_key = 0;
    std::unordered_set<JoinKey, I64Hash> copied;
  };

  void CheckDiscard();
  void EnsureCopied(JoinKey key);
  void CopyKey(PendingCopy& pc, JoinKey key);
  void PruneDrained();
  bool CopyStep();
  void RunFluidCopyBatch();
  void FinishFluidCopies();
  bool PartsLive(const Tuple& t);

  WindowSpec windows_;
  ProcessorConfig config_;
  Metrics metrics_;
  // Delay sink sits between dedup elimination and the user sink, so each
  // output's delay covers the full per-event work across all live plans.
  OutputDelaySink obs_sink_;
  DedupSink dedup_;
  std::vector<std::unique_ptr<PipelineExecutor>> plans_;
  std::vector<Seq> boundaries_;
  Stamp next_stamp_ = 1;
  Seq max_seq_seen_ = 0;
  uint64_t events_since_check_ = 0;
  uint64_t last_states_copied_ = 0;
  FluidScheduler fluid_sched_;
  std::vector<std::unique_ptr<PendingCopy>> pending_copies_;
  uint64_t events_since_fluid_ = 0;
};

}  // namespace jisc

#endif  // JISC_MIGRATION_HYBRID_TRACK_H_
