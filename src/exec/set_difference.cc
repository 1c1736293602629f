#include "exec/set_difference.h"

namespace jisc {

SetDifference::SetDifference(int node_id, StreamSet streams)
    : Operator(node_id, OpKind::kSetDifference, streams, StateIndex::kHash) {}

void SetDifference::SuppressKey(JoinKey key, ExecContext* ctx) {
  std::vector<Tuple> suppressed;
  const size_t n = state_->TakeLiveByKey(key, &suppressed);
  if (ctx->metrics != nullptr) {
    ++ctx->metrics->probes;
    ctx->metrics->probe_entries += n;
    ctx->metrics->removals += n;
  }
  if (parent_ == nullptr) {
    EmitRetractions(suppressed, ctx);
    return;
  }
  // The suppressed outer tuples may be present in ancestor states.
  for (const Tuple& l : suppressed) EmitRemoval(l.parts().front(), ctx);
}

void SetDifference::OnData(const Tuple& tuple, Side from, ExecContext* ctx) {
  if (from == Side::kLeft) {
    // Outer tuple: admitted iff no live inner match.
    Operator* inner = right_;
    if (ctx->metrics != nullptr) ++ctx->metrics->probes;
    if (!inner->state().ContainsKeyLive(tuple.key())) {
      if (state_->Insert(tuple, ctx->stamp, /*dedup=*/true)) {
        if (ctx->metrics != nullptr) ++ctx->metrics->inserts;
        EmitData(tuple, ctx);
      }
    }
    return;
  }
  // Inner tuple: suppress matching outer entries.
  SuppressKey(tuple.key(), ctx);
  if (!state_->complete()) {
    // Section 4.7: with an incomplete state, matching outer entries may
    // only exist (materialized) further up; forward the inner tuple until
    // the first complete state.
    EmitInnerClear(tuple, ctx);
  }
}

void SetDifference::OnInnerClear(const Tuple& tuple, ExecContext* ctx) {
  SuppressKey(tuple.key(), ctx);
  if (!state_->complete()) EmitInnerClear(tuple, ctx);
}

void SetDifference::OnRemoval(const BaseTuple& base, Side from,
                              ExecContext* ctx) {
  if (from == Side::kRight) {
    // Inner expiry: if it was the last live suppressor of its value,
    // matching outer tuples re-qualify.
    if (right_->state().ContainsKeyLive(base.key)) return;
    Operator* outer = left_;
    if (!outer->state().complete() && ctx->completion != nullptr) {
      Tuple probe = Tuple::FromBase(base, ctx->stamp, true);
      ctx->completion->EnsureCompleted(probe, outer, ctx);
    }
    std::vector<Tuple> candidates;
    outer->state().CollectLiveByKey(base.key, &candidates);
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
    return;
  }
  // Outer-side removal (expiry or suppression below): same rules as joins.
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
