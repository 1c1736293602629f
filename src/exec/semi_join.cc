#include "exec/semi_join.h"

namespace jisc {

SemiJoin::SemiJoin(int node_id, StreamSet streams)
    : Operator(node_id, OpKind::kSemiJoin, streams, StateIndex::kHash) {}

void SemiJoin::SuppressKey(JoinKey key, ExecContext* ctx) {
  std::vector<Tuple> dropped;
  const size_t n = state_->TakeLiveByKey(key, &dropped);
  if (ctx->metrics != nullptr) {
    ++ctx->metrics->probes;
    ctx->metrics->probe_entries += n;
    ctx->metrics->removals += n;
  }
  if (parent_ == nullptr) {
    EmitRetractions(dropped, ctx);
    return;
  }
  for (const Tuple& l : dropped) EmitRemoval(l.parts().front(), ctx);
}

void SemiJoin::QualifyKey(JoinKey key, ExecContext* ctx) {
  Operator* outer = left_;
  if (!outer->state().complete() && ctx->completion != nullptr) {
    BaseTuple probe_base;
    probe_base.key = key;
    Tuple probe = Tuple::FromBase(probe_base, ctx->stamp, true);
    ctx->completion->EnsureCompleted(probe, outer, ctx);
  }
  std::vector<Tuple> candidates;
  outer->state().CollectLiveByKey(key, &candidates);
  if (ctx->metrics != nullptr) {
    ++ctx->metrics->probes;
    ctx->metrics->probe_entries += candidates.size();
  }
  for (const Tuple& l : candidates) {
    if (state_->Insert(l, ctx->stamp, /*dedup=*/true)) {
      if (ctx->metrics != nullptr) ++ctx->metrics->inserts;
      EmitData(l, ctx);
    }
  }
}

void SemiJoin::OnData(const Tuple& tuple, Side from, ExecContext* ctx) {
  if (from == Side::kLeft) {
    // Outer tuple: admitted iff a live witness exists.
    if (ctx->metrics != nullptr) ++ctx->metrics->probes;
    if (right_->state().ContainsKeyLive(tuple.key())) {
      if (state_->Insert(tuple, ctx->stamp, /*dedup=*/true)) {
        if (ctx->metrics != nullptr) ++ctx->metrics->inserts;
        EmitData(tuple, ctx);
      }
    }
    return;
  }
  // Inner tuple: outer tuples waiting for a witness with this value now
  // qualify. (If the value already had a witness, the dedup insert stops
  // re-emission.)
  QualifyKey(tuple.key(), ctx);
}

void SemiJoin::OnInnerClear(const Tuple& tuple, ExecContext* ctx) {
  SuppressKey(tuple.key(), ctx);
  if (!state_->complete()) EmitInnerClear(tuple, ctx);
}

void SemiJoin::OnRemoval(const BaseTuple& base, Side from, ExecContext* ctx) {
  if (from == Side::kRight) {
    // Inner expiry: did the value lose its last live witness?
    if (right_->state().ContainsKeyLive(base.key)) return;
    SuppressKey(base.key, ctx);
    if (!state_->complete()) {
      // The dropped entries may only exist, materialized, above us.
      Tuple cleared = Tuple::FromBase(base, ctx->stamp, true);
      EmitInnerClear(cleared, ctx);
    }
    return;
  }
  // Outer-side removal: same rules as joins.
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
    propagate = true;
    if (ctx->completion != nullptr &&
        ctx->completion->RemovalMayStopAtIncomplete(base, this, ctx)) {
      propagate = false;
    }
  }
  if (propagate) EmitRemoval(base, ctx);
}

}  // namespace jisc
