#ifndef JISC_CORE_JISC_RUNTIME_H_
#define JISC_CORE_JISC_RUNTIME_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "core/completion_tracker.h"
#include "core/engine.h"
#include "core/migration_strategy.h"

namespace jisc {

// Configuration of the JISC strategy.
struct JiscOptions {
  // When are missing entries computed?
  enum class CompletionMode {
    // Exactly when an incomplete state is probed for a value that has not
    // been completed there (sound refinement of Procedure 1; default).
    kOnProbe,
    // On the first post-transition receipt of each value, every incomplete
    // state is completed for it (the reading of Section 4.4 under which
    // "attempted => complete at all operators" holds).
    kOnFirstReceipt,
  };
  CompletionMode completion_mode = CompletionMode::kOnProbe;

  // How is full state completion detected?
  enum class DetectionMode {
    kCounter,             // Section 4.3 counters (plus window-turnover fallback)
    kWindowTurnoverOnly,  // only the Parallel-Track-style fallback (ablation)
  };
  DetectionMode detection = DetectionMode::kCounter;

  // Use the paper's literal Case 3 rule (complete when both children get
  // completed) instead of the deferred pending-set initialization.
  bool paper_case3 = false;

  // Use the paper's Procedure 3 (iterative spine walk) for left-deep plans
  // instead of the general recursive Procedure 2. Identical semantics.
  bool use_left_deep_procedure = true;

  // Charge completion work the way Moving State's eager materialization
  // does: successful inserts count as plain `inserts`, dedup suppressions
  // are silent, and the `completions` counter is untouched. Migrate()
  // additionally freezes each incomplete state's reference-child key set;
  // values outside it are marked completed without materialization (the
  // eager pass never saw them, so no pre-transition combinations exist).
  // This is the profile the fluid moving-state mode runs under, so a fluid
  // run reproduces the all-at-once eager counters byte-for-byte.
  bool eager_charging = false;

  // Reported strategy name ("" = "jisc"); the fluid moving-state adapter
  // keeps presenting as "moving-state".
  std::string display_name;
};

// Just-In-Time State Completion (Section 4): the paper's contribution.
//
// As a MigrationStrategy it performs the lazy migration of Section 4.1:
// states of the new plan that exist (and are complete, Section 4.5) in the
// old plan are carried over; the rest start empty and are completed on
// demand. As a CompletionHandler it implements Procedures 1-3: a probe into
// an incomplete state first materializes the probe value's entries,
// recursively, starting from the highest complete states below.
class JiscRuntime : public MigrationStrategy, public CompletionHandler {
 public:
  explicit JiscRuntime(JiscOptions options = JiscOptions());
  ~JiscRuntime() override;

  // --- MigrationStrategy ---
  std::string name() const override {
    return options_.display_name.empty() ? "jisc" : options_.display_name;
  }
  Status Migrate(Engine* engine, const LogicalPlan& new_plan) override;
  CompletionHandler* handler() override { return this; }
  void Maintain(Engine* engine) override;
  // Only first-receipt completion reads the marks (OnArrival,
  // RemovalMayStopAtIncomplete).
  bool ReadsFreshness() const override {
    return options_.completion_mode ==
           JiscOptions::CompletionMode::kOnFirstReceipt;
  }
  void OnArrival(Engine* engine, const BaseTuple& base, Stamp stamp) override;

  // --- CompletionHandler ---
  void EnsureCompleted(const Tuple& probe, Operator* opposite,
                       ExecContext* ctx) override;
  bool RemovalMayStopAtIncomplete(const BaseTuple& base, const Operator* at,
                                  ExecContext* ctx) override;
  void CollectThetaMatches(const Tuple& probe, Operator* opposite,
                           ExecContext* ctx,
                           std::vector<Tuple>* out) override;

  // --- introspection (tests, benches) ---
  int num_incomplete() const { return static_cast<int>(trackers_.size()); }
  const CompletionTracker* tracker(int node_id) const;
  const JiscOptions& options() const { return options_; }

  // --- fluid migration support (migration/fluid_scheduler.h) ---

  // Node ids of currently tracked (incomplete) states, sorted — children
  // before parents, the order backlogs are drained in.
  std::vector<int> IncompleteOpIds() const;

  // Proactively completes value `v` at node `op_id` (and, recursively, at
  // its incomplete children) at event stamp `p` — exactly the work an
  // on-probe completion for `v` at this state would do, with the same
  // counter charges. No-op when the state is complete or `v` already is.
  void CompleteKeyAt(Engine* engine, int op_id, JoinKey v, Stamp p);

  // Theta (kList) states have no per-value buckets: completes the whole
  // state in one step.
  void CompleteListAt(Engine* engine, int op_id, Stamp p);

  // --- mid-migration checkpoint support ---

  // Canonical bytes of the live completion bookkeeping: per-tracker
  // provenance (since stamp, boundary), pending sets, and the eager
  // profile's frozen reference-key sets.
  void SerializeCompletionState(ByteWriter* w) const;

  // Rebuilds trackers (and frozen sets) on a freshly restored engine whose
  // states, clocks and completeness flags are already in place.
  Status RestoreCompletionState(Engine* engine, ByteReader* r);

 private:
  // Procedure 2: recursive completion of `op`'s state for value v. `p` is
  // the probing stamp (entries are materialized as of strictly-before-p).
  void CompleteForKey(Operator* op, JoinKey v, Stamp p, Metrics* metrics);
  // Procedure 3: the left-deep specialization (iterative walk up the spine
  // from the highest complete state).
  void CompleteForKeyLeftDeep(Operator* op, JoinKey v, Stamp p,
                              Metrics* metrics);
  // Materializes v's entries at `op` from its (already completed) children.
  void MaterializeKey(Operator* op, JoinKey v, Stamp p, Metrics* metrics);
  // eager_charging flavor: Moving State's counter profile, frozen-set skip.
  void MaterializeKeyEager(Operator* op, JoinKey v, Stamp p, Metrics* metrics);
  // eager_charging only: freezes, per incomplete state, the key set the
  // eager pass would have materialized (bottom-up prediction).
  void FreezeEagerKeySets(PipelineExecutor* exec, const LogicalPlan& plan);
  // Theta states have no per-value buckets: complete them in full.
  void CompleteFull(Operator* op, Stamp p, Metrics* metrics);
  void MarkStateComplete(Operator* op);
  Stamp SinceStampFor(const Operator* op) const;
  // Window-turnover fallback: true when every pre-transition tuple below
  // `op` has expired.
  bool SubtreeTurnedOver(const Operator* op) const;

  JiscOptions options_;
  Engine* engine_ = nullptr;
  bool current_plan_left_deep_ = false;
  std::unordered_map<int, std::unique_ptr<CompletionTracker>> trackers_;
  // eager_charging only: per tracked node, the reference-child key set
  // frozen at Migrate() (the values Moving State's eager pass would have
  // materialized). Values outside it complete without work or charges.
  std::unordered_map<int, std::unordered_set<JoinKey, I64Hash>> frozen_keys_;
};

// Convenience factory for Engine construction.
std::unique_ptr<MigrationStrategy> MakeJiscStrategy(
    JiscOptions options = JiscOptions());

}  // namespace jisc

#endif  // JISC_CORE_JISC_RUNTIME_H_
