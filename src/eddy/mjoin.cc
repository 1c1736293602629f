#include "eddy/mjoin.h"

#include "common/logging.h"
#include "exec/validate.h"

namespace jisc {

StatusOr<std::vector<StreamId>> MJoinExecutor::OrderOf(
    const LogicalPlan& plan) {
  for (int id = 0; id < plan.num_nodes(); ++id) {
    OpKind k = plan.node(id).kind;
    if (k != OpKind::kScan && k != OpKind::kHashJoin) {
      return Status::InvalidArgument("MJoin supports equi-join plans only");
    }
  }
  if (plan.IsLeftDeep()) return plan.LeftDeepOrder();
  return plan.streams().ToVector();
}

MJoinExecutor::MJoinExecutor(const LogicalPlan& plan,
                             const WindowSpec& windows, Sink* sink)
    : sink_(sink) {
  auto order = OrderOf(plan);
  JISC_CHECK(order.ok());
  order_ = order.value();
  stems_.resize(static_cast<size_t>(windows.num_streams()));
  for (StreamId s : order_) {
    stems_[s] = std::make_unique<SteM>(s, windows.SizeFor(s),
                                       windows.mode());
  }
}

uint64_t MJoinExecutor::StateMemory() const {
  uint64_t bytes = 0;
  ForEachState([&](const OperatorState& st) { bytes += StateBytes(st); });
  return bytes;
}

void MJoinExecutor::ForEachState(
    const std::function<void(const OperatorState&)>& fn) const {
  for (const auto& stem : stems_) {
    if (stem != nullptr) fn(stem->state());
  }
}

void MJoinExecutor::Push(const BaseTuple& tuple) {
  Stamp stamp = next_stamp_++;
  ++metrics_.arrivals;
  SteM* own = stems_[tuple.stream].get();
  JISC_CHECK(own != nullptr);
  own->Insert(tuple, stamp);
  ++metrics_.inserts;

  // Single n-ary probe chain: extend the arrival across every other window
  // in the current probe order. No intermediate state is kept and nothing
  // returns to a coordinator between probes.
  std::vector<Tuple> frontier{Tuple::FromBase(tuple, stamp, true)};
  std::vector<Tuple> next;
  for (StreamId s : order_) {
    if (s == tuple.stream) continue;
    if (frontier.empty()) break;
    next.clear();
    for (const Tuple& t : frontier) {
      ++metrics_.probes;
      std::vector<const Tuple*> matches;
      stems_[s]->ProbePtrs(t.key(), stamp, &matches);
      metrics_.probe_entries += matches.size();
      metrics_.matches += matches.size();
      for (const Tuple* m : matches) {
        next.push_back(Tuple::Concat(t, *m, stamp, true));
      }
    }
    frontier.swap(next);
  }
  for (const Tuple& out : frontier) {
    ++metrics_.outputs;
    if (sink_ != nullptr) sink_->OnOutput(out, stamp);
  }
}

Status MJoinExecutor::RequestTransition(const LogicalPlan& new_plan) {
  Status valid = new_plan.Validate();
  if (!valid.ok()) return valid;
  auto order = OrderOf(new_plan);
  if (!order.ok()) return order.status();
  for (StreamId s : order.value()) {
    if (s >= stems_.size() || stems_[s] == nullptr) {
      return Status::InvalidArgument("plan references unknown stream");
    }
  }
  order_ = std::move(order).value();
  return Status::Ok();
}

}  // namespace jisc
