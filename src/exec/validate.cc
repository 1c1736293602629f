#include "exec/validate.h"

#include <map>
#include <set>
#include <sstream>

#include "exec/stream_scan.h"

namespace jisc {

namespace {

std::multiset<uint64_t> LiveIdentitySet(const OperatorState& st) {
  std::multiset<uint64_t> out;
  st.ForEachLive([&](const Tuple& t) { out.insert(t.IdentityHash()); });
  return out;
}

std::vector<Tuple> LiveTuples(const OperatorState& st) {
  std::vector<Tuple> out;
  st.ForEachLive([&](const Tuple& t) { out.push_back(t); });
  return out;
}

Status Fail(const Operator* op, const std::string& what) {
  std::ostringstream os;
  os << "invariant violation at " << op->DebugString() << ": " << what;
  return Status::Internal(os.str());
}

}  // namespace

Status ValidateExecutorInvariants(PipelineExecutor& exec,
                                  const ThetaSpec& theta) {
  if (!exec.Idle()) {
    return Status::FailedPrecondition("executor not quiescent");
  }
  for (int id = 0; id < exec.num_ops(); ++id) {
    Operator* op = exec.op(id);
    const OperatorState& st = op->state();

    // Counter consistency.
    size_t live = 0;
    std::set<JoinKey> keys;
    st.ForEachLive([&](const Tuple& t) {
      ++live;
      keys.insert(t.key());
    });
    if (live != st.live_size()) return Fail(op, "live counter mismatch");
    if (keys.size() != st.DistinctLiveKeys()) {
      return Fail(op, "distinct-key counter mismatch");
    }

    if (op->kind() == OpKind::kScan) {
      auto* scan = static_cast<StreamScan*>(op);
      if (scan->window_fill() != st.live_size()) {
        return Fail(op, "window deque out of sync with scan state");
      }
      continue;
    }
    if (!st.complete()) continue;  // content defined lazily

    // Recompute the expected content from the children's live sets.
    std::vector<Tuple> left = LiveTuples(op->left()->state());
    std::vector<Tuple> right = LiveTuples(op->right()->state());
    std::multiset<uint64_t> expect;
    switch (op->kind()) {
      case OpKind::kHashJoin:
        for (const Tuple& l : left) {
          for (const Tuple& r : right) {
            if (l.key() == r.key()) {
              expect.insert(Tuple::Concat(l, r, 0, false).IdentityHash());
            }
          }
        }
        break;
      case OpKind::kNljJoin:
        for (const Tuple& l : left) {
          for (const Tuple& r : right) {
            if (theta.Matches(l, r)) {
              expect.insert(Tuple::Concat(l, r, 0, false).IdentityHash());
            }
          }
        }
        break;
      case OpKind::kSetDifference:
        for (const Tuple& l : left) {
          if (!op->right()->state().ContainsKeyLive(l.key())) {
            expect.insert(l.IdentityHash());
          }
        }
        break;
      case OpKind::kSemiJoin:
        for (const Tuple& l : left) {
          if (op->right()->state().ContainsKeyLive(l.key())) {
            expect.insert(l.IdentityHash());
          }
        }
        break;
      case OpKind::kScan:
        break;  // handled above
    }
    // The children themselves may be incomplete (their live sets are then
    // subsets); a complete state's content must still be a SUPERSET of the
    // recompute and EQUAL when both children are complete.
    std::multiset<uint64_t> actual = LiveIdentitySet(st);
    bool children_complete = op->left()->state().complete() &&
                             op->right()->state().complete();
    if (children_complete) {
      if (actual != expect) {
        return Fail(op, "complete state differs from children recompute");
      }
    } else {
      for (uint64_t h : expect) {
        if (actual.find(h) == actual.end()) {
          return Fail(op, "complete state missing a derivable combination");
        }
      }
    }
  }
  return Status::Ok();
}

uint64_t StateBytes(const OperatorState& st) {
  uint64_t bytes = 0;
  // One record per live entry, as wide as the parts it actually stores.
  st.ForEachLive([&](const Tuple& t) {
    bytes += OperatorState::RecordBytes(t.parts().size());
  });
  return bytes + st.TableBytes();  // bucket table slots
}

uint64_t StateMemoryBytes(const PipelineExecutor& exec) {
  uint64_t bytes = 0;
  for (int id = 0; id < exec.num_ops(); ++id) {
    bytes += StateBytes(exec.op(id)->state());
  }
  return bytes;
}

uint64_t ApproxStateMemoryBytes(const PipelineExecutor& exec) {
  uint64_t bytes = 0;
  for (int id = 0; id < exec.num_ops(); ++id) {
    bytes += exec.op(id)->state().ApproxBytes();
  }
  return bytes;
}

}  // namespace jisc
