#ifndef JISC_EXEC_OPERATOR_H_
#define JISC_EXEC_OPERATOR_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "exec/message.h"
#include "exec/metrics.h"
#include "exec/sink.h"
#include "obs/observability.h"
#include "plan/logical_plan.h"
#include "state/operator_state.h"
#include "types/tuple.h"

namespace jisc {

class Operator;
class FreshnessTracker;
class PipelineExecutor;

// Per-message processing context. The executor fills it in before
// dispatching a message to an operator.
struct ExecContext {
  Stamp stamp = 0;
  Sink* sink = nullptr;
  class CompletionHandler* completion = nullptr;  // installed by JISC
  FreshnessTracker* freshness = nullptr;          // installed by the engine
  Metrics* metrics = nullptr;
  // Observability bundle (nullptr = off, the default): service-time
  // histograms and the migration-phase trace recorder. obs_track is the
  // logical trace track of the engine driving this executor (0 for the
  // single-threaded engine, shard + 1 under the parallel executor).
  Observability* obs = nullptr;
  int obs_track = 0;
};

// Strategy hook consulted by binary operators when they are about to probe
// an INCOMPLETE opposite state. Installed by the JISC strategy; absent
// (nullptr) for strategies that never run with incomplete states.
class CompletionHandler {
 public:
  virtual ~CompletionHandler() = default;

  // Guarantees that `opposite`'s state holds every entry matching `probe`
  // that a never-migrated plan would hold (Procedures 2/3 of the paper).
  virtual void EnsureCompleted(const Tuple& probe, Operator* opposite,
                               ExecContext* ctx) = 0;

  // Section 4.2/4.4: may the expiry of `base` stop propagating at the
  // incomplete state of `at`, which yielded no match? (True when the
  // value's entries are provably complete there.)
  virtual bool RemovalMayStopAtIncomplete(const BaseTuple& base,
                                          const Operator* at,
                                          ExecContext* ctx) = 0;

  // Theta probes of an INCOMPLETE state: computes `probe`'s matches against
  // the subtree on the fly (all-pairs theta predicates decompose across
  // parts, so the recomputation is exact) without materializing the state.
  // This is what keeps JISC's output latency minimal for nested-loops plans
  // (Fig. 10b): nothing is eagerly rebuilt, and the state itself becomes
  // complete through window turnover.
  virtual void CollectThetaMatches(const Tuple& probe, Operator* opposite,
                                   ExecContext* ctx,
                                   std::vector<Tuple>* out) = 0;
};

// Base class of all physical operators. Push-based with an input queue
// (Section 2.1): children enqueue messages here; the executor's scheduler
// drains queues. Every operator materializes the state of its output
// (see state/operator_state.h).
class Operator {
 public:
  Operator(int node_id, OpKind kind, StreamSet streams, StateIndex index);
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  // --- wiring (set by PipelineExecutor during build) ---
  void SetParent(Operator* parent, Side side) {
    parent_ = parent;
    side_in_parent_ = side;
  }
  void SetChildren(Operator* left, Operator* right) {
    left_ = left;
    right_ = right;
  }
  void SetExecutor(PipelineExecutor* executor) { executor_ = executor; }

  int node_id() const { return node_id_; }
  OpKind kind() const { return kind_; }
  StreamSet streams() const { return streams_; }
  Operator* parent() const { return parent_; }
  Operator* left() const { return left_; }
  Operator* right() const { return right_; }
  Operator* child(Side s) const { return s == Side::kLeft ? left_ : right_; }

  // --- state ---
  OperatorState& state() { return *state_; }
  const OperatorState& state() const { return *state_; }
  // Swaps in a state carried over from the old plan (migration). The state's
  // identity must match this operator's stream set.
  void AdoptState(std::unique_ptr<OperatorState> state);
  std::unique_ptr<OperatorState> ReleaseState();

  // --- queue ---
  // Appends a message and flags this operator ready with the scheduler.
  // Used for event admission (arrivals); intra-event cascades propagate by
  // direct dispatch (Deliver*) below.
  void Enqueue(Message msg);
  bool HasWork() const { return !queue_.empty(); }
  size_t QueueDepth() const { return queue_.size(); }
  // Pops and dispatches one message. Precondition: HasWork().
  void ProcessOne(ExecContext* ctx);

  // Direct dispatch used by children during a cascade. Equivalent to
  // enqueue-then-process: within one event, emission order equals
  // processing order, so the queue round trip is skipped.
  void DeliverData(const Tuple& tuple, Side from, ExecContext* ctx) {
    if (ctx->metrics != nullptr) ++ctx->metrics->messages;
    OnData(tuple, from, ctx);
  }
  void DeliverRemoval(const BaseTuple& base, Side from, ExecContext* ctx) {
    if (ctx->metrics != nullptr) ++ctx->metrics->messages;
    OnRemoval(base, from, ctx);
  }
  void DeliverInnerClear(const Tuple& tuple, ExecContext* ctx) {
    if (ctx->metrics != nullptr) ++ctx->metrics->messages;
    OnInnerClear(tuple, ctx);
  }

  virtual std::string DebugString() const;

 protected:
  // Message handlers.
  virtual void OnArrival(const BaseTuple& base, ExecContext* ctx);
  virtual void OnData(const Tuple& tuple, Side from, ExecContext* ctx) = 0;
  virtual void OnRemoval(const BaseTuple& base, Side from,
                         ExecContext* ctx) = 0;
  virtual void OnInnerClear(const Tuple& tuple, ExecContext* ctx);

  // Sends a data tuple to the parent (direct dispatch), or to the sink at
  // the root. Neither keeps it, so an operator can emit a new combination
  // and then move it into its own state.
  void EmitData(const Tuple& tuple, ExecContext* ctx);
  // Propagates an expiry upward.
  void EmitRemoval(const BaseTuple& base, ExecContext* ctx);
  // Root only: withdraws previously emitted results.
  void EmitRetractions(const std::vector<Tuple>& removed, ExecContext* ctx);
  // Set-difference: forwards an inner tuple up the pipeline (Section 4.7).
  void EmitInnerClear(const Tuple& tuple, ExecContext* ctx);

  int node_id_;
  OpKind kind_;
  StreamSet streams_;
  Operator* parent_ = nullptr;
  Side side_in_parent_ = Side::kLeft;
  Operator* left_ = nullptr;
  Operator* right_ = nullptr;
  std::unique_ptr<OperatorState> state_;
  std::deque<Message> queue_;
  PipelineExecutor* executor_ = nullptr;
};

}  // namespace jisc

#endif  // JISC_EXEC_OPERATOR_H_
