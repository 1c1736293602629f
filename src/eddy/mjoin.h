#ifndef JISC_EDDY_MJOIN_H_
#define JISC_EDDY_MJOIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eddy/stem.h"
#include "exec/sink.h"
#include "exec/stream_processor.h"
#include "stream/window.h"

namespace jisc {

// MJoin [Viglas et al.], the n-ary symmetric join the paper excludes from
// its binary-tree treatment (Section 2.1) but cites as the other
// state-avoidance design: ONE operator holds only the per-stream windows
// (SteMs); every arrival is joined across all other windows in the current
// probe order, with no intermediate state and no eddy round-tripping.
// Plan transitions just swap the probe order (free), at the price of
// recomputing all intermediate results for every tuple, forever — like
// CACQ but without the per-hop eddy overhead, which makes MJoin the
// strongest stateless baseline.
class MJoinExecutor : public StreamProcessor {
 public:
  MJoinExecutor(const LogicalPlan& plan, const WindowSpec& windows,
                Sink* sink);

  std::string name() const override { return "mjoin"; }
  void Push(const BaseTuple& tuple) override;
  Status RequestTransition(const LogicalPlan& new_plan) override;
  const Metrics& metrics() const override { return metrics_; }
  uint64_t StateMemory() const override;
  void ForEachState(
      const std::function<void(const OperatorState&)>& fn) const override;

  const std::vector<StreamId>& probe_order() const { return order_; }

 private:
  static StatusOr<std::vector<StreamId>> OrderOf(const LogicalPlan& plan);

  std::vector<std::unique_ptr<SteM>> stems_;  // by stream id
  std::vector<StreamId> order_;
  Sink* sink_;
  Metrics metrics_;
  Stamp next_stamp_ = 1;
};

}  // namespace jisc

#endif  // JISC_EDDY_MJOIN_H_
