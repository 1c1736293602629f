#include "eddy/cacq.h"

#include "common/logging.h"
#include "exec/validate.h"

namespace jisc {

StatusOr<std::vector<StreamId>> CacqExecutor::OrderOf(
    const LogicalPlan& plan) {
  for (int id = 0; id < plan.num_nodes(); ++id) {
    OpKind k = plan.node(id).kind;
    if (k != OpKind::kScan && k != OpKind::kHashJoin &&
        k != OpKind::kNljJoin) {
      return Status::InvalidArgument(
          "eddy executors support join plans only");
    }
  }
  if (plan.IsLeftDeep()) return plan.LeftDeepOrder();
  // For a bushy plan the eddy uses any linearization; take streams in
  // ascending id order of the leaves.
  return plan.streams().ToVector();
}

CacqExecutor::CacqExecutor(const LogicalPlan& plan, const WindowSpec& windows,
                           Sink* sink, RoutingPolicy policy)
    : policy_(policy), sink_(sink) {
  auto order = OrderOf(plan);
  JISC_CHECK(order.ok());
  order_ = order.value();
  stems_.resize(static_cast<size_t>(windows.num_streams()));
  tickets_.assign(static_cast<size_t>(windows.num_streams()), 1);
  for (StreamId s : order_) {
    stems_[s] = std::make_unique<SteM>(s, windows.SizeFor(s),
                                       windows.mode());
  }
}

CacqExecutor::CacqExecutor(const LogicalPlan& plan, const WindowSpec& windows,
                           Sink* sink)
    : CacqExecutor(plan, windows, sink, RoutingPolicy::kFixedPriority) {}

StreamId CacqExecutor::PickTarget(StreamSet done) {
  if (policy_ == RoutingPolicy::kFixedPriority) {
    for (StreamId s : order_) {
      if (!done.Contains(s)) return s;
    }
    JISC_CHECK(false) << "no remaining stream to route to";
  }
  // Lottery: draw among the remaining SteMs proportionally to tickets.
  uint64_t total = 0;
  for (StreamId s : order_) {
    if (!done.Contains(s)) total += tickets_[s];
  }
  JISC_CHECK(total > 0);
  uint64_t draw = rng_.UniformU64(total);
  for (StreamId s : order_) {
    if (done.Contains(s)) continue;
    if (draw < tickets_[s]) return s;
    draw -= tickets_[s];
  }
  JISC_CHECK(false) << "lottery draw out of range";
  return order_.front();
}

void CacqExecutor::Push(const BaseTuple& tuple) {
  Stamp stamp = next_stamp_++;
  ++metrics_.arrivals;
  SteM* own = stems_[tuple.stream].get();
  JISC_CHECK(own != nullptr);
  own->Insert(tuple, stamp);
  ++metrics_.inserts;

  // The eddy proper: every (partial) tuple returns to the eddy between
  // probes, carrying a done-mask of the SteMs it has already joined across
  // (the CACQ per-tuple bit-vector). The eddy's routing decision picks the
  // first not-yet-done stream in the current priority order.
  struct EddyItem {
    Tuple tuple;
    StreamSet done;
  };
  std::deque<EddyItem> eddy;
  eddy.push_back(EddyItem{Tuple::FromBase(tuple, stamp, true),
                          StreamSet::Single(tuple.stream)});
  StreamSet all = StreamSet();
  for (StreamId s : order_) all = StreamSet::Union(all, StreamSet::Single(s));
  while (!eddy.empty()) {
    EddyItem item = std::move(eddy.front());
    eddy.pop_front();
    ++metrics_.eddy_visits;
    if (item.done == all) {
      // Emerges as output.
      ++metrics_.outputs;
      if (sink_ != nullptr) sink_->OnOutput(item.tuple, stamp);
      continue;
    }
    StreamId target = PickTarget(item.done);
    ++metrics_.probes;
    std::vector<const Tuple*> matches;
    stems_[target]->ProbePtrs(item.tuple.key(), stamp, &matches);
    metrics_.probe_entries += matches.size();
    metrics_.matches += matches.size();
    StreamSet done = StreamSet::Union(item.done, StreamSet::Single(target));
    for (const Tuple* m : matches) {
      eddy.push_back(
          EddyItem{Tuple::Concat(item.tuple, *m, stamp, true), done});
    }
    if (policy_ == RoutingPolicy::kLottery) {
      // Feedback: a SteM that disqualified the item is selective and earns
      // a ticket (route to it earlier next time); cap to avoid starvation.
      if (matches.empty() && tickets_[target] < 1024) ++tickets_[target];
    }
    // No matches: the tuple disqualifies and leaves the eddy.
  }
}

uint64_t CacqExecutor::StateMemory() const {
  uint64_t bytes = 0;
  ForEachState([&](const OperatorState& st) { bytes += StateBytes(st); });
  return bytes;
}

void CacqExecutor::ForEachState(
    const std::function<void(const OperatorState&)>& fn) const {
  for (const auto& stem : stems_) {
    if (stem != nullptr) fn(stem->state());
  }
}

Status CacqExecutor::RequestTransition(const LogicalPlan& new_plan) {
  Status valid = new_plan.Validate();
  if (!valid.ok()) return valid;
  auto order = OrderOf(new_plan);
  if (!order.ok()) return order.status();
  for (StreamId s : order.value()) {
    if (s >= stems_.size() || stems_[s] == nullptr) {
      return Status::InvalidArgument("plan references unknown stream");
    }
  }
  // No state to migrate: the eddy simply routes by the new order.
  order_ = std::move(order).value();
  return Status::Ok();
}

}  // namespace jisc
