#include "exec/pipeline_executor.h"

#include "common/logging.h"
#include "exec/nested_loops_join.h"
#include "exec/semi_join.h"
#include "exec/set_difference.h"
#include "exec/symmetric_hash_join.h"

namespace jisc {

PipelineExecutor::PipelineExecutor(const LogicalPlan& plan,
                                   const WindowSpec& windows, Options options,
                                   StatePool* carry_over)
    : plan_(plan), windows_(windows), options_(options) {
  JISC_CHECK(plan_.Validate().ok());
  ops_.resize(static_cast<size_t>(plan_.num_nodes()));
  in_ready_.assign(static_cast<size_t>(plan_.num_nodes()), 0);
  // Builders assign children smaller ids than parents, so a single
  // ascending pass can wire children before parents.
  for (int id = 0; id < plan_.num_nodes(); ++id) {
    const PlanNode& n = plan_.node(id);
    std::unique_ptr<Operator> op;
    switch (n.kind) {
      case OpKind::kScan:
        op = std::make_unique<StreamScan>(id, n.stream,
                                          windows_.SizeFor(n.stream),
                                          windows_.mode(),
                                          options_.external_expiry);
        break;
      case OpKind::kHashJoin:
        op = std::make_unique<SymmetricHashJoin>(id, n.streams);
        break;
      case OpKind::kNljJoin:
        op = std::make_unique<NestedLoopsJoin>(id, n.streams, options_.theta);
        break;
      case OpKind::kSetDifference:
        op = std::make_unique<SetDifference>(id, n.streams);
        break;
      case OpKind::kSemiJoin:
        op = std::make_unique<SemiJoin>(id, n.streams);
        break;
    }
    op->SetExecutor(this);
    if (n.kind != OpKind::kScan) {
      JISC_CHECK(n.left < id && n.right < id);
      Operator* left = ops_[static_cast<size_t>(n.left)].get();
      Operator* right = ops_[static_cast<size_t>(n.right)].get();
      op->SetChildren(left, right);
      left->SetParent(op.get(), Side::kLeft);
      right->SetParent(op.get(), Side::kRight);
    }
    if (carry_over != nullptr) {
      if (std::unique_ptr<OperatorState> st = carry_over->Take(n.streams)) {
        op->AdoptState(std::move(st));
        if (n.kind == OpKind::kScan) {
          auto* scan = static_cast<StreamScan*>(op.get());
          if (auto window = carry_over->TakeWindow(n.stream)) {
            scan->AdoptWindow(std::move(*window));
          } else {
            scan->RebuildWindowFromState();
          }
        }
      }
    }
    ops_[static_cast<size_t>(id)] = std::move(op);
  }
}

StreamScan* PipelineExecutor::scan(StreamId stream) {
  int id = plan_.ScanFor(stream);
  if (id < 0) return nullptr;
  return static_cast<StreamScan*>(ops_[static_cast<size_t>(id)].get());
}

Operator* PipelineExecutor::OpForStreams(StreamSet id) {
  for (auto& op : ops_) {
    if (op->streams() == id) return op.get();
  }
  return nullptr;
}

void PipelineExecutor::NotifyReady(Operator* op, Stamp stamp) {
  (void)stamp;
  size_t id = static_cast<size_t>(op->node_id());
  if (in_ready_[id]) return;
  in_ready_[id] = 1;
  ready_.push_back(op);
}

void PipelineExecutor::PushArrival(const BaseTuple& base, Stamp stamp) {
  JISC_DCHECK(Idle());
  StreamScan* s = scan(base.stream);
  JISC_CHECK(s != nullptr) << "no scan for stream " << base.stream;
  Message m;
  m.kind = Message::Kind::kArrival;
  m.stamp = stamp;
  m.base = base;
  s->Enqueue(std::move(m));
  if (ctx_.metrics != nullptr) ++ctx_.metrics->arrivals;
}

void PipelineExecutor::PushExpiry(const BaseTuple& base, Stamp stamp) {
  JISC_DCHECK(Idle());
  JISC_CHECK(options_.external_expiry);
  StreamScan* s = scan(base.stream);
  JISC_CHECK(s != nullptr) << "no scan for stream " << base.stream;
  Message m;
  m.kind = Message::Kind::kRemoval;
  m.stamp = stamp;
  m.base = base;
  s->Enqueue(std::move(m));
}

void PipelineExecutor::RunUntilIdle() {
  while (!ready_.empty()) {
    Operator* op = ready_.front();
    ready_.pop_front();
    in_ready_[static_cast<size_t>(op->node_id())] = 0;
    while (op->HasWork()) op->ProcessOne(&ctx_);
  }
}

StatePool PipelineExecutor::TakeAllStates() {
  JISC_CHECK(Idle());
  StatePool pool;
  for (auto& op : ops_) {
    if (op->kind() == OpKind::kScan) {
      auto* scan = static_cast<StreamScan*>(op.get());
      pool.PutWindow(scan->stream(), scan->TakeWindow());
    }
    pool.Put(op->ReleaseState());
  }
  return pool;
}

StateSnapshot PipelineExecutor::SnapshotCompleteness() const {
  StateSnapshot snap;
  for (const auto& op : ops_) {
    snap.Add(op->streams(), op->state().complete());
  }
  return snap;
}

bool PipelineExecutor::AllStatesNewerThan(Seq boundary) {
  // Deliberately a full scan of every state: this mirrors the Parallel
  // Track purge detection the paper calls out as costly ("each operator in
  // the old plan periodically checks if all the old tuples have been purged
  // from its state").
  bool all_newer = true;
  uint64_t scanned = 0;
  for (const auto& op : ops_) {
    op->state().ForEachLive([&](const Tuple& t) {
      ++scanned;
      for (const BaseTuple& p : t.parts()) {
        if (p.seq < boundary) all_newer = false;
      }
    });
  }
  if (ctx_.metrics != nullptr) ctx_.metrics->purge_scan_entries += scanned;
  return all_newer;
}

}  // namespace jisc
