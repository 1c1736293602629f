#ifndef JISC_EXEC_VALIDATE_H_
#define JISC_EXEC_VALIDATE_H_

#include <cstdint>

#include "common/status.h"
#include "exec/pipeline_executor.h"
#include "exec/theta.h"

namespace jisc {

// Deep structural validation of a quiescent executor, intended for tests:
//  * per-state counters (live size, distinct keys) match a recount;
//  * every scan's window deque matches its state content;
//  * every COMPLETE state's live content equals the operator semantics
//    applied to its children's live content (join / theta join /
//    set-difference / semi-join recomputed by brute force).
// Incomplete states are exempt from the content check by definition — their
// content is a subset completed on demand.
Status ValidateExecutorInvariants(PipelineExecutor& exec,
                                  const ThetaSpec& theta = ThetaSpec());

// Approximate resident bytes of one state: one record per live entry, as
// wide as the parts it stores (OperatorState::RecordBytes), plus the bucket
// table's slot array (OperatorState::TableBytes()). Equals st.ApproxBytes().
uint64_t StateBytes(const OperatorState& st);

// Approximate resident bytes of every operator state of an executor. Used
// by the Section 5 memory comparison.
uint64_t StateMemoryBytes(const PipelineExecutor& exec);

// O(num_ops) variant built on OperatorState::ApproxBytes() — same formula
// as StateBytes without walking the live entries. Cheap enough for the
// telemetry state-memory gauge refreshed on the engine's maintain cadence.
uint64_t ApproxStateMemoryBytes(const PipelineExecutor& exec);

}  // namespace jisc

#endif  // JISC_EXEC_VALIDATE_H_
