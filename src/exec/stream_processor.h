#ifndef JISC_EXEC_STREAM_PROCESSOR_H_
#define JISC_EXEC_STREAM_PROCESSOR_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/logging.h"
#include "common/status.h"
#include "exec/metrics.h"
#include "plan/logical_plan.h"
#include "types/tuple.h"

namespace jisc {

class OperatorState;

// Uniform facade over the query processors compared in the paper: the
// pipelined engine under each migration strategy (Moving State, Parallel
// Track, JISC) and the eddy-based executors (CACQ, STAIRs). The benchmark
// harness drives all of them through this interface.
class StreamProcessor {
 public:
  virtual ~StreamProcessor() = default;

  virtual std::string name() const = 0;

  // Admits one base tuple and processes it to completion.
  virtual void Push(const BaseTuple& tuple) = 0;

  // Sharded execution only: expires `tuple` from its stream's window now.
  // The parallel executor's coordinator owns global window accounting and
  // drives each shard's expiries explicitly; only processors built in
  // external-expiry mode support this.
  virtual void PushExpiry(const BaseTuple& tuple) {
    (void)tuple;
    JISC_CHECK(false) << name() << " does not support external expiry";
  }

  // Switches execution to an equivalent plan (its join order is what
  // matters). For eddy-based processors this re-routes; for pipelined ones
  // it migrates per the strategy.
  virtual Status RequestTransition(const LogicalPlan& new_plan) = 0;

  virtual const Metrics& metrics() const = 0;

  // Approximate bytes of materialized operator state currently held
  // (Section 5 compares strategies' memory footprints; Parallel Track's
  // doubles while plans overlap).
  virtual uint64_t StateMemory() const { return 0; }

  // Visits every materialized operator state the processor holds (window
  // states or SteMs, intermediate and result states).
  virtual void ForEachState(
      const std::function<void(const OperatorState&)>& fn) const {
    (void)fn;
  }
};

}  // namespace jisc

#endif  // JISC_EXEC_STREAM_PROCESSOR_H_
