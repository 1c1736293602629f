#ifndef JISC_EDDY_STAIRS_H_
#define JISC_EDDY_STAIRS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "eddy/stem.h"
#include "exec/sink.h"
#include "exec/stream_processor.h"
#include "state/operator_state.h"
#include "stream/window.h"

namespace jisc {

// STAIRs [Deshpande, Hellerstein] (Sections 3.2 and 4.6): the eddy
// framework extended with intermediate state modules, so that — unlike
// CACQ — intermediate join results are materialized. Along the current
// routing order s1..sm the executor keeps one STAIR state per prefix
// {s1..sk}, k >= 2 (the full-prefix state doubles as the result state).
//
// Migration policy, per Section 4.6:
//  * kEager ("STAIRs = Moving State applied to eddies"): on a routing
//    change, every prefix state of the new order that does not exist yet is
//    recomputed at once via Promote/Demote of all its entries — execution
//    is blocked meanwhile.
//  * kLazyJisc: prefix states existing under the old order are kept
//    (Definition 1); missing ones start empty and are completed per value
//    on first probe, exactly like the pipelined JISC (a tuple probing an
//    incomplete STAIR is routed to the highest complete STAIR below it —
//    the on-demand Promote).
class StairsExecutor : public StreamProcessor {
 public:
  enum class MigrationPolicy { kEager, kLazyJisc };

  StairsExecutor(const LogicalPlan& plan, const WindowSpec& windows,
                 Sink* sink, MigrationPolicy policy);

  std::string name() const override {
    return policy_ == MigrationPolicy::kEager ? "stairs-eager" : "stairs-jisc";
  }
  void Push(const BaseTuple& tuple) override;
  Status RequestTransition(const LogicalPlan& new_plan) override;
  const Metrics& metrics() const override { return metrics_; }
  uint64_t StateMemory() const override;
  void ForEachState(
      const std::function<void(const OperatorState&)>& fn) const override;

  const std::vector<StreamId>& routing_order() const { return order_; }
  int num_incomplete() const;

 private:
  struct Stair {
    StreamSet streams;
    std::unique_ptr<OperatorState> state;
  };

  // Index of stream `s` in the current order.
  int PositionOf(StreamId s) const;
  // Ensures prefix state k (>= 2 streams) has entries for `v` (lazy
  // Promote); recursive down the prefix chain.
  void CompletePrefixForKey(size_t k, JoinKey v, Stamp p);
  // Eagerly recomputes prefix state k from prefix k-1 x SteM (Promote all).
  void MaterializePrefix(size_t k, Stamp stamp);
  void RemoveExpired(const BaseTuple& expired, Stamp stamp);

  MigrationPolicy policy_;
  std::vector<std::unique_ptr<SteM>> stems_;  // by stream id
  std::vector<StreamId> order_;
  // prefix_[k]: state over {order_[0..k]} for k >= 1 (index 0 unused).
  std::vector<Stair> prefix_;
  Stamp incomplete_since_ = 0;
  Seq boundary_seq_ = 0;       // lazy mode: pre-transition tuples predate it
  Seq max_seq_seen_ = 0;
  uint64_t pushes_since_check_ = 0;
  Sink* sink_;
  Metrics metrics_;
  Stamp next_stamp_ = 1;
};

}  // namespace jisc

#endif  // JISC_EDDY_STAIRS_H_
