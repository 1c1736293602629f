#include "exec/nested_loops_join.h"

#include "common/logging.h"

namespace jisc {

NestedLoopsJoin::NestedLoopsJoin(int node_id, StreamSet streams,
                                 ThetaSpec theta)
    : Operator(node_id, OpKind::kNljJoin, streams, StateIndex::kList),
      theta_(theta) {}

void NestedLoopsJoin::OnData(const Tuple& tuple, Side from, ExecContext* ctx) {
  Operator* opposite = child(Opposite(from));
  JISC_DCHECK(opposite != nullptr);
  if (!opposite->state().complete() && ctx->completion != nullptr) {
    // Lazy theta probe: the handler recomputes the matches from the
    // subtree's complete descendants; nothing is eagerly materialized.
    std::vector<Tuple> matches;
    ctx->completion->CollectThetaMatches(tuple, opposite, ctx, &matches);
    if (ctx->metrics != nullptr) {
      ++ctx->metrics->probes;
      ctx->metrics->matches += matches.size();
    }
    for (const Tuple& m : matches) {
      Tuple out = Tuple::Concat(tuple, m, ctx->stamp, tuple.fresh());
      // Emit, then store in this state (see SymmetricHashJoin::OnData).
      EmitData(out, ctx);
      state_->Insert(out, ctx->stamp);
      if (ctx->metrics != nullptr) ++ctx->metrics->inserts;
    }
    return;
  }
  JISC_DCHECK(opposite->state().complete());
  // Full scan of the opposite state: the cost profile of a theta join.
  // The visited tuple lives only for its callback, so each match is joined
  // there; the outputs are emitted after the scan.
  std::vector<Tuple> outs;
  uint64_t scanned = 0;
  opposite->state().ForEachVisible(ctx->stamp, [&](const Tuple& e) {
    ++scanned;
    if (theta_.Matches(tuple, e)) {
      outs.push_back(Tuple::Concat(tuple, e, ctx->stamp, tuple.fresh()));
    }
  });
  if (ctx->metrics != nullptr) {
    ++ctx->metrics->probes;
    ctx->metrics->probe_entries += scanned;
    ctx->metrics->matches += outs.size();
  }
  for (const Tuple& out : outs) {
    EmitData(out, ctx);
    state_->Insert(out, ctx->stamp);
    if (ctx->metrics != nullptr) ++ctx->metrics->inserts;
  }
}

void NestedLoopsJoin::OnRemoval(const BaseTuple& base, Side from,
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
    propagate = true;
    if (ctx->completion != nullptr &&
        ctx->completion->RemovalMayStopAtIncomplete(base, this, ctx)) {
      propagate = false;
    }
  }
  if (propagate) EmitRemoval(base, ctx);
}

}  // namespace jisc
