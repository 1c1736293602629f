#ifndef JISC_EXEC_SYMMETRIC_HASH_JOIN_H_
#define JISC_EXEC_SYMMETRIC_HASH_JOIN_H_

#include <vector>

#include "exec/operator.h"

namespace jisc {

// Symmetric hash equi-join (Section 2.1). A tuple arriving from one child
// probes the *opposite child's* state (which materializes that subtree's
// output, as in the paper's Procedure 1); every match is concatenated,
// added to this operator's own state, and emitted to the parent.
//
// Exactly-once pairing: a probe at stamp p only sees entries inserted at
// stamps < p, so each pair is produced by its later-arriving side.
//
// JISC integration (Procedure 1): if the opposite state is incomplete, the
// installed CompletionHandler completes the probe value's entries on demand
// before the probe runs.
class SymmetricHashJoin : public Operator {
 public:
  SymmetricHashJoin(int node_id, StreamSet streams);

 protected:
  void OnData(const Tuple& tuple, Side from, ExecContext* ctx) override;
  void OnRemoval(const BaseTuple& base, Side from, ExecContext* ctx) override;

 private:
  // Probe results of the current OnData, reused across calls. A cascade
  // only climbs to ancestors, so OnData never re-enters on one operator.
  std::vector<const Tuple*> matches_;
};

}  // namespace jisc

#endif  // JISC_EXEC_SYMMETRIC_HASH_JOIN_H_
