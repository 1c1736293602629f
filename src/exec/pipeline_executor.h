#ifndef JISC_EXEC_PIPELINE_EXECUTOR_H_
#define JISC_EXEC_PIPELINE_EXECUTOR_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <vector>

#include "exec/operator.h"
#include "exec/state_pool.h"
#include "exec/stream_scan.h"
#include "exec/theta.h"
#include "plan/plan_diff.h"
#include "stream/window.h"

namespace jisc {

// One physical pipelined plan: the operator tree built from a LogicalPlan,
// plus the scheduler that drains operator input queues. Single-threaded and
// event-driven: the engine enqueues arrivals at scans and calls
// RunUntilIdle(), which processes the cascade to quiescence.
class PipelineExecutor {
 public:
  struct Options {
    // Constructor (not a default member initializer) so the enclosing
    // class can use `= Options()` as a default argument under GCC.
    Options() : external_expiry(false) {}

    ThetaSpec theta;  // predicate for kNljJoin operators
    // Sharded execution: scans never slide their windows on their own;
    // the shard coordinator delivers explicit expiry events (PushExpiry)
    // computed from the global arrival sequence.
    bool external_expiry;
  };

  // Builds the operator tree. States whose identity matches an entry in
  // `carry_over` are adopted (plan migration); the rest start empty.
  // Adopted states keep their completeness flags.
  PipelineExecutor(const LogicalPlan& plan, const WindowSpec& windows,
                   Options options = Options(),
                   StatePool* carry_over = nullptr);

  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  // --- environment (set once by the engine) ---
  void SetSink(Sink* sink) { ctx_.sink = sink; }
  void SetCompletionHandler(CompletionHandler* handler) {
    ctx_.completion = handler;
  }
  void SetFreshness(FreshnessTracker* freshness) {
    ctx_.freshness = freshness;
  }
  void SetMetrics(Metrics* metrics) { ctx_.metrics = metrics; }
  void SetObservability(Observability* obs, int track) {
    ctx_.obs = obs;
    ctx_.obs_track = track;
  }

  // --- driving ---

  // Enqueues a base tuple at its stream's scan (does not process). The
  // executor must be idle: states keep one version, so a new event may not
  // start while an older one is still in flight.
  void PushArrival(const BaseTuple& base, Stamp stamp);

  // External-expiry mode only: enqueues an expiry of `base` at its stream's
  // scan (does not process). `base` must be the oldest live tuple of its
  // stream on this executor. The executor must be idle, as for PushArrival.
  void PushExpiry(const BaseTuple& base, Stamp stamp);

  // Drains every operator queue.
  void RunUntilIdle();

  // --- structure access ---
  const LogicalPlan& plan() const { return plan_; }
  const WindowSpec& windows() const { return windows_; }
  Operator* root() { return ops_[static_cast<size_t>(plan_.root())].get(); }
  Operator* op(int node_id) { return ops_[static_cast<size_t>(node_id)].get(); }
  const Operator* op(int node_id) const {
    return ops_[static_cast<size_t>(node_id)].get();
  }
  int num_ops() const { return static_cast<int>(ops_.size()); }
  StreamScan* scan(StreamId stream);
  // Operator materializing the state with this identity, or nullptr.
  Operator* OpForStreams(StreamSet id);

  // --- migration support ---

  // Extracts every state (the executor must be idle); used to build the
  // successor plan. Leftover (discarded) states die with the pool.
  StatePool TakeAllStates();

  // Current completeness of all states (input to Definition 1 across
  // overlapped transitions, Section 4.5).
  StateSnapshot SnapshotCompleteness() const;

  // True when no live state entry anywhere contains a base tuple with
  // seq < boundary. Scans every state entry (the Parallel Track purge
  // detection the paper calls out as costly); the scanned-entry count is
  // charged to metrics->purge_scan_entries.
  bool AllStatesNewerThan(Seq boundary);

  // Scheduler hook used by Operator::Enqueue. FIFO dispatch is sound
  // because the engine admits one external event at a time (buffered
  // arrivals live in the Engine's arrival queue, not here), so every
  // in-flight message shares the current event's stamp and removals always
  // precede the data they must order before.
  void NotifyReady(Operator* op, Stamp stamp);

  bool Idle() const { return ready_.empty(); }

 private:
  friend class Operator;

  LogicalPlan plan_;
  WindowSpec windows_;
  Options options_;
  std::vector<std::unique_ptr<Operator>> ops_;
  std::deque<Operator*> ready_;
  std::vector<char> in_ready_;
  ExecContext ctx_;
};

}  // namespace jisc

#endif  // JISC_EXEC_PIPELINE_EXECUTOR_H_
