#include "core/jisc_runtime.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "exec/nested_loops_join.h"
#include "obs/trace.h"
#include "plan/plan_diff.h"

namespace jisc {

JiscRuntime::JiscRuntime(JiscOptions options) : options_(options) {}

JiscRuntime::~JiscRuntime() = default;

const CompletionTracker* JiscRuntime::tracker(int node_id) const {
  auto it = trackers_.find(node_id);
  return it == trackers_.end() ? nullptr : it->second.get();
}

Stamp JiscRuntime::SinceStampFor(const Operator* op) const {
  auto it = trackers_.find(op->node_id());
  JISC_CHECK(it != trackers_.end())
      << "incomplete state without a tracker: " << op->DebugString();
  return it->second->since_stamp();
}

Status JiscRuntime::Migrate(Engine* engine, const LogicalPlan& new_plan) {
  engine_ = engine;
  Observability* obs = engine->config().obs;
  TraceRecorder* rec = obs != nullptr ? &obs->trace : nullptr;
  int track = engine->config().obs_track;
  PipelineExecutor& old_exec = engine->executor();

  // Definition 1 refined by Section 4.5: completeness in the new plan
  // requires existence *and* completeness in the old plan.
  StateSnapshot snapshot;
  PlanDiff diff;
  {
    TraceScope span(rec, "plan-diff", "migration", track);
    snapshot = old_exec.SnapshotCompleteness();
    diff = DiffPlans(new_plan, snapshot);
    span.SetArg("incomplete", static_cast<uint64_t>(diff.NumIncomplete()));
  }

  // Provenance of still-incomplete carried states: keep the earliest
  // since-stamp / boundary so their old combinations stay covered.
  struct Provenance {
    Stamp since;
    Seq boundary;
  };
  std::unordered_map<uint64_t, Provenance, U64Hash> carried;
  for (const auto& [id, tr] : trackers_) {
    (void)id;
    carried[tr->op()->streams().bits()] = {tr->since_stamp(),
                                           tr->boundary_seq()};
  }
  trackers_.clear();

  TraceScope carryover(rec, "state-carryover", "migration", track);
  StatePool pool = old_exec.TakeAllStates();
  auto new_exec = std::make_unique<PipelineExecutor>(
      new_plan, engine->windows(), engine->config().exec, &pool);
  // Remaining pool entries are the old plan's discarded states; they die
  // with `pool` here (Section 4.1).

  Stamp transition_stamp = engine->AllocateStamp();
  Seq boundary = engine->max_seq_seen() + 1;

  for (int id = 0; id < new_plan.num_nodes(); ++id) {
    Operator* op = new_exec->op(id);
    if (diff.node_complete[id] || op->kind() == OpKind::kScan) {
      op->state().MarkComplete();
    } else {
      op->state().MarkIncomplete();
    }
  }
  // Trackers are created children-first so each sees its children's final
  // completeness flags (Cases 1-3 of Section 4.3).
  for (int id = 0; id < new_plan.num_nodes(); ++id) {
    Operator* op = new_exec->op(id);
    if (op->state().complete()) continue;
    Stamp since = transition_stamp;
    Seq bound = boundary;
    auto it = carried.find(op->streams().bits());
    if (it != carried.end()) {
      since = std::min(since, it->second.since);
      bound = std::min(bound, it->second.boundary);
    }
    trackers_[id] = std::make_unique<CompletionTracker>(
        op, since, bound, options_.paper_case3);
  }
  current_plan_left_deep_ = new_plan.IsLeftDeep();
  frozen_keys_.clear();
  if (options_.eager_charging) FreezeEagerKeySets(new_exec.get(), new_plan);
  engine->ReplaceExecutor(std::move(new_exec));
  return Status::Ok();
}

void JiscRuntime::FreezeEagerKeySets(PipelineExecutor* exec,
                                     const LogicalPlan& plan) {
  // Predict, children before parents, the live-key set each state would
  // hold after Moving State's eager bottom-up materialization. A complete
  // (carried) state keeps its actual keys; an incomplete state's set is
  // derived from its children's predicted sets, because the eager pass
  // materializes it from the already-filled children. The reference-child
  // set the eager pass would iterate (and charge for) is frozen per node;
  // values outside it complete with no work.
  std::vector<std::unordered_set<JoinKey, I64Hash>> predicted(
      static_cast<size_t>(plan.num_nodes()));
  for (int id = 0; id < plan.num_nodes(); ++id) {
    Operator* op = exec->op(id);
    OperatorState& st = op->state();
    auto& mine = predicted[static_cast<size_t>(id)];
    if (op->kind() == OpKind::kScan || st.complete()) {
      for (JoinKey v : st.LiveKeys()) mine.insert(v);
      continue;
    }
    if (st.index() == StateIndex::kList) continue;  // CompleteFull covers these
    const auto& lk = predicted[static_cast<size_t>(op->left()->node_id())];
    const auto& rk = predicted[static_cast<size_t>(op->right()->node_id())];
    if (op->kind() == OpKind::kSetDifference ||
        op->kind() == OpKind::kSemiJoin) {
      frozen_keys_[id] = lk;  // eager iterates the left (outer) entries
      bool want_witness = op->kind() == OpKind::kSemiJoin;
      for (JoinKey v : lk) {
        if ((rk.count(v) != 0) == want_witness) mine.insert(v);
      }
    } else {
      // Equi join: eager iterates the smaller child's keys (ties -> left);
      // a combination needs the value live on both sides.
      const auto& ref = lk.size() <= rk.size() ? lk : rk;
      const auto& other = lk.size() <= rk.size() ? rk : lk;
      frozen_keys_[id] = ref;
      for (JoinKey v : ref) {
        if (other.count(v) != 0) mine.insert(v);
      }
    }
  }
}

void JiscRuntime::Maintain(Engine* engine) {
  if (trackers_.empty()) return;
  engine_ = engine;
  std::vector<int> ids;
  ids.reserve(trackers_.size());
  for (const auto& [id, tr] : trackers_) {
    (void)tr;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());  // children before parents
  for (int id : ids) {
    auto it = trackers_.find(id);
    if (it == trackers_.end()) continue;
    CompletionTracker* tr = it->second.get();
    bool done = false;
    if (options_.detection == JiscOptions::DetectionMode::kCounter) {
      tr->SweepExpired();
      tr->ResolveDeferred();
      done = tr->Done();
    }
    if (!done) done = SubtreeTurnedOver(tr->op());
    if (done) MarkStateComplete(tr->op());
  }
}

bool JiscRuntime::SubtreeTurnedOver(const Operator* op) const {
  JISC_CHECK(engine_ != nullptr);
  auto it = trackers_.find(op->node_id());
  JISC_CHECK(it != trackers_.end());
  Seq boundary = it->second->boundary_seq();
  PipelineExecutor& exec = engine_->executor();
  for (StreamId s : op->streams().ToVector()) {
    StreamScan* scan = exec.scan(s);
    JISC_CHECK(scan != nullptr);
    if (scan->window_fill() == 0) continue;
    if (scan->OldestLiveSeq() < boundary) return false;
  }
  return true;
}

void JiscRuntime::MarkStateComplete(Operator* op) {
  op->state().MarkComplete();
  trackers_.erase(op->node_id());
}

void JiscRuntime::OnArrival(Engine* engine, const BaseTuple& base,
                            Stamp stamp) {
  if (options_.completion_mode != JiscOptions::CompletionMode::kOnFirstReceipt)
    return;
  if (trackers_.empty()) return;
  engine_ = engine;
  if (!engine->freshness().IsFresh(base.stream, base.key)) return;
  // Complete this value at every incomplete state, children first.
  std::vector<int> ids;
  for (const auto& [id, tr] : trackers_) {
    (void)tr;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  Metrics* metrics = &engine->mutable_metrics();
  for (int id : ids) {
    auto it = trackers_.find(id);
    if (it == trackers_.end()) continue;
    Operator* op = it->second->op();
    if (op->state().index() == StateIndex::kList) {
      CompleteFull(op, stamp, metrics);
    } else {
      CompleteForKey(op, base.key, stamp, metrics);
    }
  }
}

void JiscRuntime::EnsureCompleted(const Tuple& probe, Operator* opposite,
                                  ExecContext* ctx) {
  if (opposite->state().complete()) return;
  // One clock-read pair feeds both the completion_ns histogram and the
  // per-value "jit-completion" trace span (recorded manually rather than
  // through TraceScope so the duration is not measured twice).
  Observability* obs = ctx->obs;
  uint64_t t0 = obs != nullptr ? obs->trace.NowNs() : 0;
  if (opposite->state().index() == StateIndex::kList) {
    CompleteFull(opposite, ctx->stamp, ctx->metrics);
  } else if (current_plan_left_deep_ && options_.use_left_deep_procedure) {
    CompleteForKeyLeftDeep(opposite, probe.key(), ctx->stamp, ctx->metrics);
  } else {
    CompleteForKey(opposite, probe.key(), ctx->stamp, ctx->metrics);
  }
  if (obs != nullptr) {
    uint64_t now = obs->trace.NowNs();
    obs->completion_ns.Record(now - t0);
    TraceSpan span;
    span.name = "jit-completion";
    span.category = "migration";
    span.start_ns = t0;
    span.dur_ns = now - t0;
    span.track = ctx->obs_track;
    span.depth = 0;
    span.arg_name = "key";
    span.arg = static_cast<uint64_t>(probe.key());
    obs->trace.Record(span);
  }
}

bool JiscRuntime::RemovalMayStopAtIncomplete(const BaseTuple& base,
                                             const Operator* at,
                                             ExecContext* ctx) {
  (void)ctx;
  if (at->state().IsKeyCompleted(base.key)) return true;
  if (options_.completion_mode ==
          JiscOptions::CompletionMode::kOnFirstReceipt &&
      engine_ != nullptr &&
      !engine_->freshness().IsFresh(base.stream, base.key)) {
    // Section 4.4: attempted values have complete entries at every state.
    return true;
  }
  return false;
}

void JiscRuntime::CollectThetaMatches(const Tuple& probe, Operator* opposite,
                                      ExecContext* ctx,
                                      std::vector<Tuple>* out) {
  OperatorState& st = opposite->state();
  if (opposite->kind() == OpKind::kScan || st.complete()) {
    // Materialized: scan it. The probe's theta is the parent's, but every
    // nested-loops operator in a plan shares the query's ThetaSpec.
    auto* parent = static_cast<NestedLoopsJoin*>(opposite->parent());
    const ThetaSpec& theta = parent->theta();
    uint64_t scanned = 0;
    st.ForEachVisible(ctx->stamp, [&](const Tuple& e) {
      ++scanned;
      if (theta.Matches(probe, e)) out->push_back(e);
    });
    if (ctx->metrics != nullptr) ctx->metrics->probe_entries += scanned;
    return;
  }
  if (st.index() != StateIndex::kList) {
    // Mixed plan: an incomplete equi/set state under a theta parent is
    // completed in full, then scanned.
    CompleteFull(opposite, ctx->stamp, ctx->metrics);
    CollectThetaMatches(probe, opposite, ctx, out);
    return;
  }
  // Incomplete theta state: recompute the probe's matches from the
  // children. All-pairs predicates decompose across parts, so
  //   matches(X, t) = { l (x) r : l in matches(left, t),
  //                     r in matches(right, t), theta_X(l, r) }.
  auto* nlj = static_cast<NestedLoopsJoin*>(opposite);
  std::vector<Tuple> ls;
  std::vector<Tuple> rs;
  CollectThetaMatches(probe, opposite->left(), ctx, &ls);
  CollectThetaMatches(probe, opposite->right(), ctx, &rs);
  for (const Tuple& l : ls) {
    for (const Tuple& r : rs) {
      if (ctx->metrics != nullptr) ++ctx->metrics->probe_entries;
      if (nlj->theta().Matches(l, r)) {
        out->push_back(Tuple::Concat(l, r, ctx->stamp, false));
      }
    }
  }
}

void JiscRuntime::CompleteForKey(Operator* op, JoinKey v, Stamp p,
                                 Metrics* metrics) {
  if (op->kind() == OpKind::kScan) return;  // leaf states are complete
  OperatorState& st = op->state();
  if (st.complete() || st.IsKeyCompleted(v)) return;
  if (st.index() == StateIndex::kList) {
    CompleteFull(op, p, metrics);
    return;
  }
  // Procedure 2: recursively complete the children for v first, then
  // materialize at this node.
  CompleteForKey(op->left(), v, p, metrics);
  CompleteForKey(op->right(), v, p, metrics);
  MaterializeKey(op, v, p, metrics);
}

void JiscRuntime::CompleteForKeyLeftDeep(Operator* op, JoinKey v, Stamp p,
                                         Metrics* metrics) {
  // Procedure 3: in a left-deep plan only left-spine states can be
  // incomplete, so walk down the spine to the highest node whose left child
  // is usable, then materialize upward without recursion.
  std::vector<Operator*> chain;
  Operator* cur = op;
  while (cur->kind() != OpKind::kScan && !cur->state().complete() &&
         !cur->state().IsKeyCompleted(v)) {
    if (cur->state().index() == StateIndex::kList) {
      // Mixed plan: a theta state on the spine is completed in full.
      CompleteFull(cur, p, metrics);
      break;
    }
    chain.push_back(cur);
    cur = cur->left();
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    MaterializeKey(*it, v, p, metrics);
  }
}

void JiscRuntime::MaterializeKey(Operator* op, JoinKey v, Stamp p,
                                 Metrics* metrics) {
  OperatorState& st = op->state();
  JISC_DCHECK(!st.complete() && !st.IsKeyCompleted(v));
  if (options_.eager_charging) {
    MaterializeKeyEager(op, v, p, metrics);
    return;
  }
  Stamp since = SinceStampFor(op);
  if (op->kind() == OpKind::kSetDifference || op->kind() == OpKind::kSemiJoin) {
    // Set difference: entries for v are the outer tuples with v and no live
    // inner match. Semi join: the same outer tuples when a live inner match
    // DOES exist.
    bool witness = op->right()->state().ContainsKeyLive(v);
    bool keep = op->kind() == OpKind::kSemiJoin ? witness : !witness;
    if (keep) {
      std::vector<Tuple> outers;
      op->left()->state().CollectMatches(v, p, &outers);
      for (const Tuple& l : outers) {
        Tuple entry = l;
        entry.set_birth(since);
        if (st.Insert(entry, since, /*dedup=*/true)) {
          if (metrics != nullptr) ++metrics->completion_inserts;
        } else if (metrics != nullptr) {
          ++metrics->completion_dedup_hits;
        }
      }
    }
  } else {
    std::vector<Tuple> ls;
    std::vector<Tuple> rs;
    op->left()->state().CollectMatches(v, p, &ls);
    op->right()->state().CollectMatches(v, p, &rs);
    if (metrics != nullptr) metrics->probe_entries += ls.size() + rs.size();
    for (const Tuple& l : ls) {
      for (const Tuple& r : rs) {
        Tuple combo = Tuple::Concat(l, r, since, /*fresh=*/false);
        if (st.Insert(combo, since, /*dedup=*/true)) {
          if (metrics != nullptr) ++metrics->completion_inserts;
        } else if (metrics != nullptr) {
          ++metrics->completion_dedup_hits;
        }
      }
    }
  }
  st.MarkKeyCompleted(v);
  if (metrics != nullptr) ++metrics->completions;
  auto it = trackers_.find(op->node_id());
  if (it != trackers_.end()) it->second->OnKeyCompleted(v);
}

void JiscRuntime::MaterializeKeyEager(Operator* op, JoinKey v, Stamp p,
                                      Metrics* metrics) {
  // Moving State's counter profile (migration/state_materializer.cc):
  // successful inserts charge `inserts`, dedup suppressions are silent, the
  // `completions` counter is untouched, and set-difference / semi-join
  // probes charge one probe_entry per outer tuple examined.
  OperatorState& st = op->state();
  auto finish = [&] {
    st.MarkKeyCompleted(v);
    auto it = trackers_.find(op->node_id());
    if (it != trackers_.end()) it->second->OnKeyCompleted(v);
  };
  auto fit = frozen_keys_.find(op->node_id());
  if (fit == frozen_keys_.end() || fit->second.count(v) == 0) {
    // The eager pass never iterated this value here, so no pre-transition
    // combination exists for it: complete it with no work and no charges.
    finish();
    return;
  }
  Stamp since = SinceStampFor(op);
  if (op->kind() == OpKind::kSetDifference || op->kind() == OpKind::kSemiJoin) {
    std::vector<Tuple> outers;
    op->left()->state().CollectMatches(v, p, &outers);
    if (metrics != nullptr) metrics->probe_entries += outers.size();
    bool witness = op->right()->state().ContainsKeyLive(v);
    bool keep = op->kind() == OpKind::kSemiJoin ? witness : !witness;
    if (keep) {
      for (const Tuple& l : outers) {
        Tuple entry = l;
        entry.set_birth(since);
        if (st.Insert(entry, since, /*dedup=*/true) && metrics != nullptr) {
          ++metrics->inserts;
        }
      }
    }
  } else {
    std::vector<Tuple> ls;
    std::vector<Tuple> rs;
    op->left()->state().CollectMatches(v, p, &ls);
    op->right()->state().CollectMatches(v, p, &rs);
    if (metrics != nullptr) metrics->probe_entries += ls.size() + rs.size();
    for (const Tuple& l : ls) {
      for (const Tuple& r : rs) {
        Tuple combo = Tuple::Concat(l, r, since, /*fresh=*/false);
        if (st.Insert(combo, since, /*dedup=*/true) && metrics != nullptr) {
          ++metrics->inserts;
        }
      }
    }
  }
  finish();
}

void JiscRuntime::CompleteFull(Operator* op, Stamp p, Metrics* metrics) {
  if (op->kind() == OpKind::kScan) return;
  OperatorState& st = op->state();
  if (st.complete()) return;
  CompleteFull(op->left(), p, metrics);
  CompleteFull(op->right(), p, metrics);
  if (st.index() == StateIndex::kList) {
    // Theta join: all-pairs cross product of the children's visible entries.
    auto* nlj = static_cast<NestedLoopsJoin*>(op);
    Stamp since = SinceStampFor(op);
    std::vector<Tuple> ls;
    op->left()->state().ForEachVisible(p,
                                       [&](const Tuple& t) { ls.push_back(t); });
    op->right()->state().ForEachVisible(p, [&](const Tuple& r) {
      for (const Tuple& l : ls) {
        if (metrics != nullptr) ++metrics->probe_entries;
        if (!nlj->theta().Matches(l, r)) continue;
        Tuple combo = Tuple::Concat(l, r, since, /*fresh=*/false);
        if (st.Insert(combo, since, /*dedup=*/true)) {
          if (metrics != nullptr) {
            if (options_.eager_charging) {
              ++metrics->inserts;
            } else {
              ++metrics->completion_inserts;
            }
          }
        } else if (metrics != nullptr && !options_.eager_charging) {
          ++metrics->completion_dedup_hits;
        }
      }
    });
    if (metrics != nullptr && !options_.eager_charging) ++metrics->completions;
  } else {
    // Hash or set-difference state: complete every potentially-missing
    // value. (Missing combinations need the value live on both sides, so
    // the smaller child's key set suffices; set-difference entries come
    // from the left child.)
    const Operator* ref;
    if (op->kind() == OpKind::kSetDifference ||
        op->kind() == OpKind::kSemiJoin) {
      ref = op->left();
    } else {
      ref = op->left()->state().DistinctLiveKeys() <=
                    op->right()->state().DistinctLiveKeys()
                ? op->left()
                : op->right();
    }
    for (JoinKey v : ref->state().LiveKeys()) {
      if (!st.IsKeyCompleted(v)) MaterializeKey(op, v, p, metrics);
    }
  }
  MarkStateComplete(op);
}

std::vector<int> JiscRuntime::IncompleteOpIds() const {
  std::vector<int> ids;
  ids.reserve(trackers_.size());
  // jisc-verify: allow(determinism) — gathered ids are sorted below
  for (const auto& [id, tr] : trackers_) {
    (void)tr;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());  // children before parents
  return ids;
}

void JiscRuntime::CompleteKeyAt(Engine* engine, int op_id, JoinKey v,
                                Stamp p) {
  engine_ = engine;
  Operator* op = engine->executor().op(op_id);
  OperatorState& st = op->state();
  if (st.complete() || st.IsKeyCompleted(v)) return;
  Metrics* metrics = &engine->mutable_metrics();
  if (st.index() == StateIndex::kList) {
    CompleteFull(op, p, metrics);
    return;
  }
  // Same dispatch as an on-probe completion so the charges are identical.
  if (current_plan_left_deep_ && options_.use_left_deep_procedure) {
    CompleteForKeyLeftDeep(op, v, p, metrics);
  } else {
    CompleteForKey(op, v, p, metrics);
  }
}

void JiscRuntime::CompleteListAt(Engine* engine, int op_id, Stamp p) {
  engine_ = engine;
  Operator* op = engine->executor().op(op_id);
  if (op->state().complete()) return;
  CompleteFull(op, p, &engine->mutable_metrics());
}

void JiscRuntime::SerializeCompletionState(ByteWriter* w) const {
  std::vector<int> ids = IncompleteOpIds();
  w->PutU64(ids.size());
  for (int id : ids) {
    const CompletionTracker& tr = *trackers_.at(id);
    w->PutU64(static_cast<uint64_t>(id));
    w->PutU64(tr.since_stamp());
    w->PutU64(tr.boundary_seq());
    w->PutU64(tr.initialized() ? 1 : 0);
    if (tr.initialized()) {
      std::vector<JoinKey> keys = tr.PendingKeysSorted();
      w->PutU64(keys.size());
      for (JoinKey k : keys) w->PutI64(k);
    }
  }
  std::vector<int> fids;
  fids.reserve(frozen_keys_.size());
  // jisc-verify: allow(determinism) — gathered ids are sorted below
  for (const auto& [id, keys] : frozen_keys_) {
    (void)keys;
    fids.push_back(id);
  }
  std::sort(fids.begin(), fids.end());
  w->PutU64(fids.size());
  for (int id : fids) {
    const auto& set = frozen_keys_.at(id);
    std::vector<JoinKey> keys(set.begin(), set.end());
    std::sort(keys.begin(), keys.end());
    w->PutU64(static_cast<uint64_t>(id));
    w->PutU64(keys.size());
    for (JoinKey k : keys) w->PutI64(k);
  }
}

Status JiscRuntime::RestoreCompletionState(Engine* engine, ByteReader* r) {
  engine_ = engine;
  PipelineExecutor& exec = engine->executor();
  current_plan_left_deep_ = engine->plan().IsLeftDeep();
  trackers_.clear();
  frozen_keys_.clear();
  int num_ops = exec.num_ops();
  uint64_t num_trackers = 0;
  Status s = r->GetU64(&num_trackers);
  if (!s.ok()) return s;
  for (uint64_t i = 0; i < num_trackers; ++i) {
    uint64_t id = 0;
    uint64_t since = 0;
    uint64_t boundary = 0;
    uint64_t initialized = 0;
    if (!(s = r->GetU64(&id)).ok()) return s;
    if (!(s = r->GetU64(&since)).ok()) return s;
    if (!(s = r->GetU64(&boundary)).ok()) return s;
    if (!(s = r->GetU64(&initialized)).ok()) return s;
    if (id >= static_cast<uint64_t>(num_ops)) {
      return Status::InvalidArgument(
          "completion state references a node outside the plan");
    }
    Operator* op = exec.op(static_cast<int>(id));
    if (op->kind() == OpKind::kScan || op->state().complete()) {
      return Status::InvalidArgument(
          "completion state does not match the checkpointed plan");
    }
    auto tr = std::make_unique<CompletionTracker>(
        op, static_cast<Stamp>(since), static_cast<Seq>(boundary),
        options_.paper_case3);
    if (initialized != 0) {
      uint64_t num_keys = 0;
      if (!(s = r->GetU64(&num_keys)).ok()) return s;
      std::vector<JoinKey> keys;
      keys.reserve(num_keys);
      for (uint64_t k = 0; k < num_keys; ++k) {
        int64_t key = 0;
        if (!(s = r->GetI64(&key)).ok()) return s;
        keys.push_back(static_cast<JoinKey>(key));
      }
      tr->RestorePending(keys);
    }
    trackers_[static_cast<int>(id)] = std::move(tr);
  }
  uint64_t num_frozen = 0;
  if (!(s = r->GetU64(&num_frozen)).ok()) return s;
  for (uint64_t i = 0; i < num_frozen; ++i) {
    uint64_t id = 0;
    uint64_t num_keys = 0;
    if (!(s = r->GetU64(&id)).ok()) return s;
    if (!(s = r->GetU64(&num_keys)).ok()) return s;
    if (id >= static_cast<uint64_t>(num_ops)) {
      return Status::InvalidArgument(
          "frozen key set references a node outside the plan");
    }
    auto& set = frozen_keys_[static_cast<int>(id)];
    for (uint64_t k = 0; k < num_keys; ++k) {
      int64_t key = 0;
      if (!(s = r->GetI64(&key)).ok()) return s;
      set.insert(static_cast<JoinKey>(key));
    }
  }
  return Status::Ok();
}

std::unique_ptr<MigrationStrategy> MakeJiscStrategy(JiscOptions options) {
  return std::make_unique<JiscRuntime>(options);
}

}  // namespace jisc
