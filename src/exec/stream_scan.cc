#include "exec/stream_scan.h"

#include <algorithm>

#include "common/logging.h"
#include "core/freshness_tracker.h"

namespace jisc {

StreamScan::StreamScan(int node_id, StreamId stream, uint64_t window_size,
                       WindowSpec::Mode mode, bool external_expiry)
    : Operator(node_id, OpKind::kScan, StreamSet::Single(stream),
               StateIndex::kHash),
      stream_(stream),
      window_size_(window_size),
      mode_(mode),
      external_expiry_(external_expiry) {
  JISC_CHECK(window_size_ >= 1);
}

Seq StreamScan::OldestLiveSeq() const {
  if (window_.empty()) return kStampInfinity;
  return window_.front().seq;
}

void StreamScan::RebuildWindowFromState() {
  window_.clear();
  state_->ForEachLive([this](const Tuple& t) {
    JISC_DCHECK(t.parts().size() == 1);
    window_.push_back(t.parts().front());
  });
  std::sort(window_.begin(), window_.end(),
            [](const BaseTuple& a, const BaseTuple& b) {
              return a.seq < b.seq;
            });
}

void StreamScan::OnArrival(const BaseTuple& base, ExecContext* ctx) {
  JISC_DCHECK(base.stream == stream_);
  // Window bookkeeping (and the purge/turnover detectors) rely on per-
  // stream arrival order matching sequence order.
  JISC_CHECK(window_.empty() || window_.back().seq < base.seq)
      << "stream " << stream_ << " arrivals must have increasing seq";
  // Window slide: displaced tuples expire, and their expiry must be applied
  // (and propagated) before the new tuple is processed so that the new
  // tuple does not join with them. Count mode displaces at most one tuple;
  // time mode may expire several (everything with ts <= now - duration).
  // In external-expiry mode the coordinator delivers expiries as removal
  // messages ahead of the arrivals that displace them (see OnRemoval).
  if (external_expiry_) {
    // nothing: the window slides only on explicit expiry messages
  } else if (mode_ == WindowSpec::Mode::kCount) {
    if (window_.size() >= window_size_) ExpireFront(ctx);
  } else {
    while (!window_.empty() &&
           window_.front().ts + window_size_ <= base.ts) {
      ExpireFront(ctx);
    }
  }
  window_.push_back(base);
  bool fresh = true;
  if (ctx->freshness != nullptr) {
    fresh = ctx->freshness->ClassifyAndMark(stream_, base.key);
  }
  Tuple t = Tuple::FromBase(base, ctx->stamp, fresh);
  // Emit first, then store in the window state: an entry inserted at
  // stamp s is invisible to every probe at stamp s (RecordHead::VisibleAt),
  // so no probe in the cascade could have seen it.
  EmitData(t, ctx);
  state_->Insert(t, ctx->stamp);
  if (ctx->metrics != nullptr) ++ctx->metrics->inserts;
}

void StreamScan::ExpireFront(ExecContext* ctx) {
  BaseTuple oldest = window_.front();
  window_.pop_front();
  int n = state_->RemoveContaining(oldest.seq, oldest.key, ctx->stamp,
                                   nullptr);
  JISC_DCHECK(n == 1);
  (void)n;
  if (ctx->metrics != nullptr) ++ctx->metrics->removals;
  EmitRemoval(oldest, ctx);
}

void StreamScan::OnData(const Tuple&, Side, ExecContext*) {
  JISC_CHECK(false) << "scan received a data message";
}

void StreamScan::OnRemoval(const BaseTuple& base, Side, ExecContext* ctx) {
  // Only the sharded executor's coordinator sends removal messages to a
  // scan: an instruction to expire `base` from the window now. Per-stream
  // expiry follows seq order, so the target is always the window front.
  JISC_CHECK(external_expiry_) << "scan received a removal message";
  JISC_DCHECK(base.stream == stream_);
  JISC_CHECK(!window_.empty() && window_.front().seq == base.seq)
      << "external expiry out of order on stream " << stream_;
  ExpireFront(ctx);
}

}  // namespace jisc
