#include "exec/symmetric_hash_join.h"

#include "common/logging.h"

namespace jisc {

SymmetricHashJoin::SymmetricHashJoin(int node_id, StreamSet streams)
    : Operator(node_id, OpKind::kHashJoin, streams, StateIndex::kHash) {}

void SymmetricHashJoin::OnData(const Tuple& tuple, Side from,
                               ExecContext* ctx) {
  Operator* opposite = child(Opposite(from));
  JISC_DCHECK(opposite != nullptr);
  // Under JISC a handler completes the probe's entries on demand. Without
  // a handler (the hybrid track strategy) an incomplete state is probed
  // as-is: its gaps are covered by the older plans still running.
  if (!opposite->state().complete() && ctx->completion != nullptr) {
    ctx->completion->EnsureCompleted(tuple, opposite, ctx);
  }
  // Service-time histograms are opt-in on top of observability itself:
  // two steady-clock reads per probe/insert is real hot-path cost.
  bool timed = ctx->obs != nullptr && ctx->obs->options.record_service_times;
  uint64_t t0 = timed ? ctx->obs->trace.NowNs() : 0;
  matches_.clear();
  opposite->state().CollectMatchPtrs(tuple.key(), ctx->stamp, &matches_);
  if (timed) ctx->obs->probe_ns.Record(ctx->obs->trace.NowNs() - t0);
  if (ctx->metrics != nullptr) {
    ++ctx->metrics->probes;
    ctx->metrics->probe_entries += matches_.size();
    ctx->metrics->matches += matches_.size();
  }
  for (const Tuple* m : matches_) {
    Tuple out = Tuple::Concat(tuple, *m, ctx->stamp, tuple.fresh());
    // Emit first, then store in this state: an entry inserted at stamp s
    // is invisible to every probe at stamp s (RecordHead::VisibleAt), so
    // no probe in the cascade could have seen it.
    EmitData(out, ctx);
    if (timed) t0 = ctx->obs->trace.NowNs();
    state_->Insert(out, ctx->stamp);
    if (timed) ctx->obs->insert_ns.Record(ctx->obs->trace.NowNs() - t0);
    if (ctx->metrics != nullptr) ++ctx->metrics->inserts;
  }
}

void SymmetricHashJoin::OnRemoval(const BaseTuple& base, Side from,
                                  ExecContext* ctx) {
  (void)from;
  std::vector<Tuple> removed;
  bool is_root = (parent_ == nullptr);
  int n = state_->RemoveContaining(base.seq, base.key, ctx->stamp,
                                   is_root ? &removed : nullptr);
  if (ctx->metrics != nullptr) ctx->metrics->removals += n;
  if (is_root) {
    EmitRetractions(removed, ctx);
    return;
  }
  bool propagate = n > 0;
  if (!propagate && !state_->complete()) {
    // Section 4.2: a removal finding no match in an incomplete state must
    // keep propagating (the missing entries may exist, fully materialized,
    // in a complete ancestor state) -- unless the handler can prove the
    // entries here are complete for this value (Section 4.4 optimization).
    propagate = true;
    if (ctx->completion != nullptr &&
        ctx->completion->RemovalMayStopAtIncomplete(base, this, ctx)) {
      propagate = false;
    }
  }
  if (propagate) EmitRemoval(base, ctx);
}

}  // namespace jisc
