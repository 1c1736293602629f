#include "migration/fluid_scheduler.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/logging.h"
#include "obs/observability.h"

namespace jisc {

uint64_t FluidScheduler::RunBatch(Metrics* metrics, TraceRecorder* rec,
                                  int track,
                                  const std::function<bool()>& step,
                                  const std::function<uint64_t()>& backlog) {
  const uint64_t budget = BudgetUnits();
  const uint64_t start = metrics->WorkUnits();
  uint64_t items = 0;
  uint64_t last_item_units = 0;
  {
    TraceScope span(rec, "fluid-batch", "migration", track);
    while (items < options_.batch_keys) {
      uint64_t before = metrics->WorkUnits();
      if (!step()) break;
      ++items;
      last_item_units = metrics->WorkUnits() - before;
      stats_.max_item_units = std::max(stats_.max_item_units, last_item_units);
      if (metrics->WorkUnits() - start >= budget) break;
    }
    span.SetArg("items", items);
  }
  if (items == 0) return 0;
  uint64_t used = metrics->WorkUnits() - start;
  ++stats_.batches;
  stats_.items += items;
  stats_.units += used;
  stats_.max_batch_items = std::max(stats_.max_batch_items, items);
  stats_.max_batch_units = std::max(stats_.max_batch_units, used);
  if (items > 1 && used - last_item_units >= budget) ++stats_.overruns;
  if (backlog() > 0) {
    ++stats_.yields;
    TraceInstant(rec, "fluid-yield", "migration", track, "backlog",
                 backlog());
  }
  return items;
}

Status FluidJiscStrategy::Migrate(Engine* engine,
                                  const LogicalPlan& new_plan) {
  Status s = inner_.Migrate(engine, new_plan);
  if (!s.ok()) return s;
  RebuildLedger();
  return Status::Ok();
}

void FluidJiscStrategy::RebuildLedger() {
  ops_.clear();
  for (int id : inner_.IncompleteOpIds()) ops_.push_back(id);
  cursor_built_ = false;
  cursor_is_list_ = false;
  cur_keys_.clear();
  cur_index_ = 0;
}

void FluidJiscStrategy::PopOp() {
  ops_.pop_front();
  cursor_built_ = false;
  cursor_is_list_ = false;
  cur_keys_.clear();
  cur_index_ = 0;
}

bool FluidJiscStrategy::EnsureCursor(Engine* engine) {
  while (!ops_.empty()) {
    Operator* op = engine->executor().op(ops_.front());
    OperatorState& st = op->state();
    if (st.complete()) {
      // Completed behind our back (window turnover, on-probe CompleteFull).
      PopOp();
      continue;
    }
    if (!cursor_built_) {
      cursor_built_ = true;
      cur_index_ = 0;
      cur_keys_.clear();
      cursor_is_list_ = st.index() == StateIndex::kList;
      if (!cursor_is_list_) {
        // Same reference-child rule as an on-probe CompleteFull: missing
        // combinations need the value live on both sides, so the smaller
        // child's key set suffices; set-difference / semi-join entries come
        // from the left child. Values probed before their batch arrives are
        // completed on-probe and skipped here via IsKeyCompleted.
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
          if (!st.IsKeyCompleted(v)) cur_keys_.push_back(v);
        }
        std::sort(cur_keys_.begin(), cur_keys_.end());
      }
    }
    if (cursor_is_list_) return true;
    while (cur_index_ < cur_keys_.size() &&
           st.IsKeyCompleted(cur_keys_[cur_index_])) {
      ++cur_index_;
    }
    if (cur_index_ < cur_keys_.size()) return true;
    PopOp();
  }
  return false;
}

bool FluidJiscStrategy::Step(Engine* engine, Stamp stamp) {
  if (!EnsureCursor(engine)) return false;
  int id = ops_.front();
  if (cursor_is_list_) {
    inner_.CompleteListAt(engine, id, stamp);
    PopOp();
    return true;
  }
  JoinKey v = cur_keys_[cur_index_++];
  inner_.CompleteKeyAt(engine, id, v, stamp);
  return true;
}

uint64_t FluidJiscStrategy::FluidBacklog() {
  if (ops_.empty()) return 0;
  uint64_t rest = static_cast<uint64_t>(ops_.size()) - 1;
  if (!cursor_built_) return rest + 1;
  if (cursor_is_list_) return rest + 1;
  return rest + (cur_keys_.size() - cur_index_);
}

void FluidJiscStrategy::RunFluidBatch(Engine* engine, Stamp stamp) {
  Observability* obs = engine->config().obs;
  TraceRecorder* rec = obs != nullptr ? &obs->trace : nullptr;
  scheduler_.RunBatch(
      &engine->mutable_metrics(), rec, engine->config().obs_track,
      [&] { return Step(engine, stamp); }, [&] { return FluidBacklog(); });
}

std::string FluidJiscStrategy::SerializeMigrationState() const {
  ByteWriter w;
  w.PutU64(kFluidBlobMagic);
  const FluidOptions& fo = scheduler_.options();
  w.PutU64(fo.batch_keys);
  w.PutU64(fo.delay_budget_us);
  w.PutU64(fo.batch_period);
  inner_.SerializeCompletionState(&w);
  return w.Take();
}

Status FluidJiscStrategy::RestoreMigrationState(Engine* engine,
                                                const std::string& bytes) {
  ByteReader r(bytes);
  uint64_t magic = 0;
  Status s = r.GetU64(&magic);
  if (!s.ok()) return s;
  if (magic != kFluidBlobMagic) {
    return Status::InvalidArgument("fluid migration state: bad magic");
  }
  uint64_t ignored = 0;
  for (int i = 0; i < 3; ++i) {  // options echo (informational)
    if (!(s = r.GetU64(&ignored)).ok()) return s;
  }
  s = inner_.RestoreCompletionState(engine, &r);
  if (!s.ok()) return s;
  if (!r.AtEnd()) {
    return Status::InvalidArgument("fluid migration state: trailing bytes");
  }
  // The drain resumes exactly where the checkpointed run stopped: the
  // ledger is re-derived from the restored trackers, and already-completed
  // values (restored with the states) are skipped by the cursor.
  RebuildLedger();
  return Status::Ok();
}

std::unique_ptr<MigrationStrategy> MakeFluidStrategy(JiscOptions jisc,
                                                     FluidOptions fluid) {
  return std::make_unique<FluidJiscStrategy>(jisc, fluid);
}

}  // namespace jisc
