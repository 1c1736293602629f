#include "migration/hybrid_track.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "exec/stream_scan.h"
#include "exec/validate.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "plan/plan_diff.h"

namespace jisc {

HybridTrackProcessor::HybridTrackProcessor(const LogicalPlan& plan,
                                           const WindowSpec& windows,
                                           Sink* sink,
                                           const ProcessorConfig& config)
    : windows_(windows),
      config_(config),
      dedup_(config.obs != nullptr ? static_cast<Sink*>(&obs_sink_) : sink),
      fluid_sched_(config.fluid) {
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

void HybridTrackProcessor::Push(const BaseTuple& tuple) {
  if (config_.obs != nullptr) obs_sink_.BeginEvent();
  Stamp stamp = next_stamp_++;
  max_seq_seen_ = std::max(max_seq_seen_, tuple.seq);
  if (!pending_copies_.empty()) {
    // Just-in-time copy-in: whatever this tuple is about to probe must be
    // in place first, then one budgeted batch drains the rest of the
    // backlog. Both run under this event's delay measurement, so the batch
    // budget bounds the stall this event's outputs observe.
    EnsureCopied(tuple.key);
    if (++events_since_fluid_ >= config_.fluid.batch_period) {
      events_since_fluid_ = 0;
      RunFluidCopyBatch();
    }
  }
  for (auto& plan : plans_) {
    plan->PushArrival(tuple, stamp);
    plan->RunUntilIdle();
  }
  if (migrating() && ++events_since_check_ >= config_.purge_check_period) {
    events_since_check_ = 0;
    CheckDiscard();
  }
}

Status HybridTrackProcessor::RequestTransition(const LogicalPlan& new_plan) {
  Status valid = new_plan.Validate();
  if (!valid.ok()) return valid;
  for (int id = 0; id < new_plan.num_nodes(); ++id) {
    OpKind k = new_plan.node(id).kind;
    if (k == OpKind::kSetDifference || k == OpKind::kSemiJoin) {
      return Status::Unimplemented(
          "hybrid track supports join plans only");
    }
  }
  PipelineExecutor& donor = *plans_.back();
  if (!(new_plan.streams() == donor.plan().streams())) {
    return Status::InvalidArgument(
        "new plan must cover the same streams as the old plan");
  }
  Observability* obs = config_.obs;
  TraceRecorder* rec = obs != nullptr ? &obs->trace : nullptr;
  TraceScope transition(rec, "transition", "migration", config_.obs_track);
  // A second transition while a fluid copy-in is still draining lands the
  // remainder synchronously first: the newest plan is about to become the
  // donor, so its adopted states must hold their full content.
  FinishFluidCopies();
  // State matching (the Moving State ingredient): deep-copy every shared
  // *authoritative* state from the newest live plan into the new one. A
  // donor state is authoritative iff it is flagged complete — states the
  // donor itself started empty (and has only partially refilled) would
  // seed the new plan with gaps below fully-copied ancestors, the exact
  // Section 4.2 hazard. Scans are always complete, so the new plan's
  // windows start full either way.
  std::vector<Operator*> sources(new_plan.num_nodes(), nullptr);
  int num_matched = 0;
  for (int id = 0; id < new_plan.num_nodes(); ++id) {
    Operator* source = donor.OpForStreams(new_plan.node(id).streams);
    if (source != nullptr && source->state().complete()) {
      sources[id] = source;
      ++num_matched;
    }
  }
  // Fluid mode defers the copy of matched hash-join states: they are
  // snapshotted here (uncharged) and moved in per key between tuples.
  // Scans stay eager (window eviction bookkeeping must track arrivals
  // exactly), as do list states (theta probes are not key-local) and fully
  // matched transitions (the old plans are discarded immediately below, so
  // the new plan must be self-sufficient from the first tuple).
  const bool defer = config_.fluid.IsFluid() &&
                     num_matched < new_plan.num_nodes();
  std::vector<bool> deferred(new_plan.num_nodes(), false);
  StatePool pool;
  last_states_copied_ = 0;
  std::unique_ptr<PipelineExecutor> exec;
  {
    TraceScope span(rec, "state-copy", "migration", config_.obs_track);
    for (int id = 0; id < new_plan.num_nodes(); ++id) {
      Operator* source = sources[id];
      if (source == nullptr) continue;
      if (defer && new_plan.node(id).kind != OpKind::kScan &&
          source->state().index() == StateIndex::kHash) {
        deferred[id] = true;
        ++last_states_copied_;
        continue;
      }
      pool.Put(source->state().Clone());
      ++last_states_copied_;
      metrics_.inserts += source->state().live_size();  // the copy cost
    }
    span.SetArg("states_copied", last_states_copied_);
    exec = std::make_unique<PipelineExecutor>(new_plan, windows_,
                                              config_.exec, &pool);
  }
  exec->SetSink(&dedup_);
  exec->SetMetrics(&metrics_);
  exec->SetObservability(config_.obs, config_.obs_track);
  // States that start empty are marked incomplete so expiry propagation
  // never stops at them (their combinations exist, materialized, in the
  // complete ancestors we just copied). Unlike JISC there is no on-demand
  // completion: the older plans cover the gap until they are purged.
  // Deferred states stay flagged complete — they are authoritative, their
  // content just arrives fluidly.
  for (int id = 0; id < new_plan.num_nodes(); ++id) {
    Operator* op = exec->op(id);
    if (op->state().live_size() == 0 && op->kind() != OpKind::kScan &&
        !pool.Contains(op->streams()) && !deferred[id]) {
      // Not adopted from the pool (Take removed adopted ones): freshly
      // created, hence empty and unauthoritative.
      op->state().MarkIncomplete();
    }
  }
  // The copied root content means this plan now also covers every live
  // result; give it its share of the dedup counts so retractions stay
  // exactly-once.
  exec->root()->state().ForEachLive(
      [this](const Tuple& t) { dedup_.NoteAdoption(t); });
  bool fully_matched = true;
  for (int id = 0; id < new_plan.num_nodes(); ++id) {
    if (!exec->op(id)->state().complete()) fully_matched = false;
  }
  plans_.push_back(std::move(exec));
  boundaries_.push_back(max_seq_seen_ + 1);
  // Snapshot the deferred donor states now: the old plans keep running and
  // mutating their own copies, but the copy-in must reproduce the content
  // as of the transition, at its original insertion stamps.
  PipelineExecutor& adopted = *plans_.back();
  for (int id = 0; id < new_plan.num_nodes(); ++id) {
    if (!deferred[id]) continue;
    auto pc = std::make_unique<PendingCopy>();
    pc->node_id = id;
    pc->is_root = adopted.op(id) == adopted.root();
    pc->snapshot = sources[id]->state().Clone();
    pc->keys = pc->snapshot->LiveKeys();
    std::sort(pc->keys.begin(), pc->keys.end());
    pending_copies_.push_back(std::move(pc));
  }
  events_since_fluid_ = 0;
  if (obs != nullptr && obs->telemetry != nullptr) {
    // jisc-verify: allow(obs-null-discipline) — guarded just above
    obs->telemetry->SetMigrationBacklog(config_.obs_track,
                                        FluidCopyBacklog());
  }
  if (fully_matched) {
    // Every state of the new plan was matched: it is self-sufficient from
    // the first tuple and the older plans can be dropped without any
    // migration stage at all — the one transition shape where the hybrid
    // family clearly beats plain Parallel Track.
    while (plans_.size() > 1) {
      TraceScope span(rec, "plan-discard", "migration", config_.obs_track);
      plans_.front()->root()->state().ForEachLive(
          [this](const Tuple& t) { dedup_.NoteDiscard(t); });
      plans_.erase(plans_.begin());
      boundaries_.erase(boundaries_.begin());
    }
  }
  transition.SetArg("live_plans", plans_.size());
  return Status::Ok();
}

uint64_t HybridTrackProcessor::StateMemory() const {
  uint64_t bytes = 0;
  for (const auto& plan : plans_) bytes += StateMemoryBytes(*plan);
  return bytes;
}

void HybridTrackProcessor::CheckDiscard() {
  Observability* obs = config_.obs;
  TraceRecorder* rec = obs != nullptr ? &obs->trace : nullptr;
  while (plans_.size() > 1) {
    bool purgeable;
    {
      TraceScope span(rec, "purge-scan", "migration", config_.obs_track);
      purgeable = plans_.front()->AllStatesNewerThan(boundaries_[1]);
    }
    if (!purgeable) break;
    // While a fluid copy-in is still draining, the older plans cover the
    // combinations the new plan has not received yet; keep them alive (the
    // purge scan above still ran, so the scan cadence and its charges are
    // identical to an all-at-once run).
    if (!pending_copies_.empty()) break;
    TraceScope span(rec, "plan-discard", "migration", config_.obs_track);
    plans_.front()->root()->state().ForEachLive(
        [this](const Tuple& t) { dedup_.NoteDiscard(t); });
    plans_.erase(plans_.begin());
    boundaries_.erase(boundaries_.begin());
  }
}

uint64_t HybridTrackProcessor::FluidCopyBacklog() const {
  uint64_t n = 0;
  for (const auto& pc : pending_copies_) {
    n += static_cast<uint64_t>(pc->keys.size() - pc->next_key);
  }
  return n;
}

bool HybridTrackProcessor::PartsLive(const Tuple& t) {
  // The new plan's scans were copied eagerly and evolve exactly like an
  // all-at-once run's, so they are the authority on which base tuples are
  // still live. A snapshot entry whose parts have already expired would
  // never be probed again; inserting it would only leak it past expiry
  // propagation (the removal cascade for its seq has already run).
  PipelineExecutor& newest = *plans_.back();
  for (const BaseTuple& p : t.parts()) {
    StreamScan* scan = newest.scan(p.stream);
    if (scan == nullptr || scan->window_fill() == 0) return false;
    if (p.seq < scan->OldestLiveSeq()) return false;
  }
  return true;
}

void HybridTrackProcessor::CopyKey(PendingCopy& pc, JoinKey key) {
  pc.copied.insert(key);
  std::vector<std::pair<Tuple, Stamp>> entries;
  pc.snapshot->CollectLiveByKeyWithStamps(key, &entries);
  if (entries.empty()) return;
  OperatorState& st = plans_.back()->op(pc.node_id)->state();
  for (auto& [t, stamp] : entries) {
    if (!PartsLive(t)) continue;
    st.Insert(t, stamp);
    ++metrics_.inserts;  // same per-entry charge as the eager Clone copy
    if (pc.is_root) dedup_.NoteAdoption(t);
  }
}

void HybridTrackProcessor::EnsureCopied(JoinKey key) {
  for (auto& pc : pending_copies_) {
    if (pc->copied.count(key) != 0) continue;
    CopyKey(*pc, key);
  }
  PruneDrained();
}

void HybridTrackProcessor::PruneDrained() {
  auto it = pending_copies_.begin();
  while (it != pending_copies_.end()) {
    PendingCopy& pc = **it;
    while (pc.next_key < pc.keys.size() &&
           pc.copied.count(pc.keys[pc.next_key]) != 0) {
      ++pc.next_key;
    }
    it = pc.next_key >= pc.keys.size() ? pending_copies_.erase(it) : it + 1;
  }
}

bool HybridTrackProcessor::CopyStep() {
  while (!pending_copies_.empty()) {
    PendingCopy& pc = *pending_copies_.front();
    while (pc.next_key < pc.keys.size() &&
           pc.copied.count(pc.keys[pc.next_key]) != 0) {
      ++pc.next_key;
    }
    if (pc.next_key >= pc.keys.size()) {
      pending_copies_.erase(pending_copies_.begin());
      continue;
    }
    CopyKey(pc, pc.keys[pc.next_key++]);
    return true;
  }
  return false;
}

void HybridTrackProcessor::RunFluidCopyBatch() {
  TraceRecorder* rec =
      config_.obs != nullptr ? &config_.obs->trace : nullptr;
  fluid_sched_.RunBatch(&metrics_, rec, config_.obs_track,
                        [this] { return CopyStep(); },
                        [this] { return FluidCopyBacklog(); });
  if (config_.obs != nullptr && config_.obs->telemetry != nullptr) {
    config_.obs->telemetry->SetMigrationBacklog(config_.obs_track,
                                                 FluidCopyBacklog());
  }
}

void HybridTrackProcessor::FinishFluidCopies() {
  while (CopyStep()) {
  }
}

}  // namespace jisc
