#include "exec/operator.h"

#include <sstream>

#include "common/logging.h"
#include "exec/pipeline_executor.h"

namespace jisc {

Operator::Operator(int node_id, OpKind kind, StreamSet streams,
                   StateIndex index)
    : node_id_(node_id),
      kind_(kind),
      streams_(streams),
      state_(std::make_unique<OperatorState>(streams, index)) {}

void Operator::AdoptState(std::unique_ptr<OperatorState> state) {
  JISC_CHECK(state != nullptr);
  JISC_CHECK(state->id() == streams_);
  state_ = std::move(state);
}

std::unique_ptr<OperatorState> Operator::ReleaseState() {
  return std::move(state_);
}

void Operator::Enqueue(Message msg) {
  Stamp stamp = msg.stamp;
  queue_.push_back(std::move(msg));
  if (executor_ != nullptr) executor_->NotifyReady(this, stamp);
}

void Operator::ProcessOne(ExecContext* ctx) {
  JISC_DCHECK(HasWork());
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  ctx->stamp = msg.stamp;
  if (ctx->metrics != nullptr) ++ctx->metrics->messages;
  switch (msg.kind) {
    case Message::Kind::kArrival:
      OnArrival(msg.base, ctx);
      break;
    case Message::Kind::kData:
      OnData(msg.tuple, msg.from, ctx);
      break;
    case Message::Kind::kRemoval:
      OnRemoval(msg.base, msg.from, ctx);
      break;
    case Message::Kind::kInnerClear:
      OnInnerClear(msg.tuple, ctx);
      break;
  }
}

void Operator::OnArrival(const BaseTuple& base, ExecContext* ctx) {
  (void)base;
  (void)ctx;
  JISC_CHECK(false) << "OnArrival reached a non-scan operator";
}

void Operator::OnInnerClear(const Tuple& tuple, ExecContext* ctx) {
  (void)tuple;
  (void)ctx;
  JISC_CHECK(false) << "OnInnerClear reached a non-set-difference operator";
}

void Operator::EmitData(const Tuple& tuple, ExecContext* ctx) {
  if (parent_ == nullptr) {
    if (ctx->metrics != nullptr) ++ctx->metrics->outputs;
    if (ctx->sink != nullptr) ctx->sink->OnOutput(tuple, ctx->stamp);
    return;
  }
  parent_->DeliverData(tuple, side_in_parent_, ctx);
}

void Operator::EmitRemoval(const BaseTuple& base, ExecContext* ctx) {
  if (parent_ == nullptr) return;
  parent_->DeliverRemoval(base, side_in_parent_, ctx);
}

void Operator::EmitRetractions(const std::vector<Tuple>& removed,
                               ExecContext* ctx) {
  if (parent_ != nullptr || ctx->sink == nullptr) return;
  for (const Tuple& t : removed) {
    if (ctx->metrics != nullptr) ++ctx->metrics->retractions;
    ctx->sink->OnRetract(t, ctx->stamp);
  }
}

void Operator::EmitInnerClear(const Tuple& tuple, ExecContext* ctx) {
  if (parent_ == nullptr) return;
  parent_->DeliverInnerClear(tuple, ctx);
}

std::string Operator::DebugString() const {
  std::ostringstream os;
  os << OpKindName(kind_) << "#" << node_id_ << " " << streams_.ToString()
     << " queue=" << queue_.size() << " " << state_->DebugString();
  return os.str();
}

}  // namespace jisc
