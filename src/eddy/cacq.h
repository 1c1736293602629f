#ifndef JISC_EDDY_CACQ_H_
#define JISC_EDDY_CACQ_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "eddy/stem.h"
#include "exec/sink.h"
#include "exec/stream_processor.h"
#include "stream/window.h"

namespace jisc {

// CACQ [Madden et al.] as characterized in Section 3.1: an eddy routing
// tuples through per-stream SteMs with *no* intermediate state. Every
// arrival is joined across all other SteMs; each partial result returns to
// the eddy between probes (counted in metrics.eddy_visits — this round
// tripping is what halves CACQ's throughput versus a pipeline). A plan
// transition merely changes the routing order: zero migration cost, but
// intermediate results are recomputed for every tuple, forever.
class CacqExecutor : public StreamProcessor {
 public:
  // How the eddy picks the next SteM for a tuple.
  enum class RoutingPolicy {
    kFixedPriority,  // the current plan's join order (deterministic)
    kLottery,        // ticket-based lottery [Avnur & Hellerstein]: SteMs
                     // that disqualify tuples quickly (selective ones)
                     // accumulate tickets and get routed to earlier
  };

  CacqExecutor(const LogicalPlan& plan, const WindowSpec& windows,
               Sink* sink, RoutingPolicy policy);
  CacqExecutor(const LogicalPlan& plan, const WindowSpec& windows,
               Sink* sink);

  std::string name() const override { return "cacq"; }
  void Push(const BaseTuple& tuple) override;
  Status RequestTransition(const LogicalPlan& new_plan) override;
  const Metrics& metrics() const override { return metrics_; }
  uint64_t StateMemory() const override;
  void ForEachState(
      const std::function<void(const OperatorState&)>& fn) const override;

  const std::vector<StreamId>& routing_order() const { return order_; }
  uint64_t tickets(StreamId s) const { return tickets_[s]; }

 private:
  static StatusOr<std::vector<StreamId>> OrderOf(const LogicalPlan& plan);
  // Routing decision: the next SteM for an item that still owes `done`'s
  // complement.
  StreamId PickTarget(StreamSet done);

  RoutingPolicy policy_ = RoutingPolicy::kFixedPriority;
  std::vector<std::unique_ptr<SteM>> stems_;  // indexed by stream id
  std::vector<StreamId> order_;               // current routing priority
  std::vector<uint64_t> tickets_;             // lottery weights by stream
  Rng rng_{0xeddca11};
  Sink* sink_;
  Metrics metrics_;
  Stamp next_stamp_ = 1;
};

}  // namespace jisc

#endif  // JISC_EDDY_CACQ_H_
