#ifndef JISC_EXEC_PARALLEL_EXECUTOR_H_
#define JISC_EXEC_PARALLEL_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/sink.h"
#include "exec/stream_processor.h"
#include "stream/window.h"

namespace jisc {

class TelemetryRegistry;

// Hash-partitioned parallel execution engine.
//
// Tuples are sharded by join-attribute hash across N workers; each worker
// runs an independent single-threaded StreamProcessor (an Engine in
// external-expiry mode) over its partition of the operator states. Because
// every operator of a shardable plan matches on join-key equality, a result
// combination's parts all carry one key and live entirely inside one shard,
// so the union of the shards' outputs equals the single-threaded engine's
// output multiset — the single-threaded path remains the equivalence
// oracle.
//
// Windows are the one global construct: a count window of W holds the
// stream's last W tuples *across all shards*. The coordinator (the thread
// calling Push) therefore keeps its own per-stream window bookkeeping,
// decides which tuple every arrival displaces, and sends that tuple's owner
// shard an explicit expiry event ahead of the arrival — preserving the
// single-threaded engine's invariant that a displaced tuple's expiry is
// processed before the tuple that displaced it. Same-key tuples share a
// shard, so all orderings that can affect the output are preserved; events
// on different keys commute.
//
// JISC migration works unchanged per shard: RequestTransition is broadcast,
// each shard carries over its own complete states and lazily completes
// incomplete ones — the per-value completion protocol of Section 4 never
// crosses a key boundary, hence never crosses a shard boundary.
//
// Threading/queues: each shard is fed through a bounded single-producer
// queue with blocking backpressure (the coordinator is the only producer);
// workers acknowledge control events (transition/barrier) through a shared
// bounded MPSC queue. Shutdown closes every feed and joins the workers
// after they drain.
//
// Output: the downstream sink is wrapped in one LockedSink, and each shard
// engine writes to its own outbox in front of it, which only that shard's
// worker touches. An output goes straight to the sink when the outbox is
// empty and the sink's lock is free; otherwise it is queued, and the
// worker delivers the whole queue under one lock hold after each batch,
// before each ack, at kOutboxCap queued outputs and before it exits. An
// idle shard's outputs therefore arrive at once, while contending shards
// take the lock once per batch instead of once per output. Each key lives
// in one shard and a queued output is never overtaken by a direct one, so
// per-key delivery order is the single-threaded engine's.
//
// Hand-off is adaptive: the coordinator sends a shard's pending events as
// soon as that shard's feed is empty (its worker has taken everything sent
// so far), and otherwise once batch_size events have accumulated. An idle
// worker therefore sees each event at once, while a busy worker — a closed
// loop, or set-up — still receives full batches; batch_size is a cap, not a
// fill target. Batch boundaries never change a shard's event sequence, so
// outputs and counters do not depend on them.
//
// The public StreamProcessor surface must be driven by ONE thread (the
// coordinator); every entry point with that contract carries the
// JISC_COORDINATOR_ONLY marker below — the single source of truth,
// enforced by tools/jisc_verify (no worker-thread path may reach a marked
// method). Push is asynchronous (it returns once the event is
// enqueued); metrics()/StateMemory() quiesce all shards through the same
// feed queues and ack channel as Push/RequestTransition, which is exactly
// why they are marked too. Monitoring threads that want a live view must
// use MetricsApprox(), which only reads atomic counters.
class ParallelExecutor : public StreamProcessor {
 public:
  // What only the executor reads; the shard count and the observability
  // bundle are constructor arguments.
  struct Options {
    // Shard feed capacity in batches; the producer blocks when full.
    size_t queue_capacity = 256;
    // Most events per queue hand-off. A batch is sent early whenever its
    // shard's feed is empty, so this caps batches for busy workers only.
    size_t batch_size = 64;
    // Fault injection for the telemetry stall watchdog (tests/scenarios
    // only): the worker of shard `straggler_shard` sleeps for
    // `straggler_stall_ns` after every `straggler_stall_every` processed
    // events. Wall-clock only — outputs and deterministic counters are
    // untouched, so injected runs stay baseline-comparable. -1 = off.
    int straggler_shard = -1;
    uint64_t straggler_stall_ns = 0;
    uint64_t straggler_stall_every = 64;
  };

  // Most outputs a shard's outbox queues before it delivers them: bounds
  // the outbox under a hot key's fan-out (see "Output" above).
  static constexpr size_t kOutboxCap = 256;

  // Builds the worker for one shard. `shard_sink` is the shard's outbox
  // (written only by that shard's worker); the returned processor must
  // support PushExpiry (external-expiry mode).
  using ShardFactory =
      std::function<std::unique_ptr<StreamProcessor>(Sink* shard_sink,
                                                     int shard)>;

  // `sink` is the downstream consumer of the merged output stream; it is
  // wrapped in an internal LockedSink, which each shard reaches through its
  // own outbox (see "Output" above). Pass nullptr when the factory wires
  // its own (per-shard) sinks. `obs` (nullptr = off)
  // is the observability bundle: the coordinator records its
  // broadcast/barrier spans on track 0; shard processors (wired by the
  // factory) record on track shard + 1 into the same bundle.
  ParallelExecutor(const LogicalPlan& plan, const WindowSpec& windows,
                   Sink* sink, const ShardFactory& factory, int num_shards,
                   Observability* obs, Options options);
  ~ParallelExecutor() override;

  // True when every stateful operator matches on join-key equality, the
  // property key-partitioning relies on (theta/NLJ plans are not
  // shardable).
  static Status ValidateShardable(const LogicalPlan& plan);

  // --- StreamProcessor ---
  std::string name() const override { return name_; }
  JISC_COORDINATOR_ONLY void Push(const BaseTuple& tuple) override;
  JISC_COORDINATOR_ONLY Status RequestTransition(
      const LogicalPlan& new_plan) override;
  // Quiesces all shards, then returns the merged per-shard counters (the
  // barrier mutates coordinator-side batches and consumes acks, so a
  // concurrent Push/RequestTransition races — hence the marker).
  // Monitoring threads should call MetricsApprox() instead.
  JISC_COORDINATOR_ONLY const Metrics& metrics() const override;
  // Quiesces, then walks worker-owned state.
  JISC_COORDINATOR_ONLY uint64_t StateMemory() const override;

  // Flushes every pending batch and blocks until all shards have processed
  // everything enqueued so far. The output sink is fully caught up on
  // return.
  JISC_COORDINATOR_ONLY void Barrier();

  // Thread-safe, non-quiescing counter snapshot: sums the shards' atomic
  // counters without a barrier, so batches still in flight are partially
  // reflected. This is the only observation entry point that may be called
  // concurrently with the coordinator (e.g. from a monitoring thread).
  Metrics MetricsApprox() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  StreamProcessor* shard(int i) { return shards_[i]->processor.get(); }

 private:
  struct ShardEvent {
    enum class Kind : uint8_t { kArrival, kExpire, kTransition, kBarrier };
    Kind kind = Kind::kArrival;
    BaseTuple base;
    std::shared_ptr<const LogicalPlan> plan;  // kTransition only
  };
  using EventBatch = std::vector<ShardEvent>;

  struct Ack {
    int shard = -1;
    Status status;
  };

  // A shard's output buffer in front of the shared LockedSink, written and
  // drained only by the shard's worker (see "Output" above).
  class Outbox : public Sink {
   public:
    explicit Outbox(LockedSink* sink) : sink_(sink) {}

    void OnOutput(const Tuple& tuple, Stamp stamp) override {
      Add(tuple, stamp, /*retract=*/false);
    }
    void OnRetract(const Tuple& tuple, Stamp stamp) override {
      Add(tuple, stamp, /*retract=*/true);
    }

    // Delivers everything queued under one lock hold.
    void Drain();

   private:
    void Add(const Tuple& tuple, Stamp stamp, bool retract);

    LockedSink* const sink_;
    // Slots [0, size_) are queued; later slots keep their tuples' storage
    // for reuse, so a steady stream of queued outputs allocates nothing.
    std::vector<LockedSink::Delivery> slots_;
    size_t size_ = 0;
  };

  struct Shard {
    explicit Shard(size_t queue_capacity) : feed(queue_capacity) {}
    SpscQueue<EventBatch> feed;  // coordinator -> worker (single producer)
    std::unique_ptr<Outbox> outbox;  // nullptr when the factory wires sinks
    std::unique_ptr<StreamProcessor> processor;
    EventBatch pending;  // coordinator-side batch under construction
    int index = -1;      // telemetry track = index + 1
    std::thread thread;
  };

  int OwnerShard(JoinKey key) const;
  // Coordinator-side helpers: they mutate the per-shard pending batches.
  JISC_COORDINATOR_ONLY void Enqueue(int shard, ShardEvent ev);
  JISC_COORDINATOR_ONLY void FlushShard(Shard& s);
  JISC_COORDINATOR_ONLY void FlushAll();
  // Broadcasts a control event and waits for every shard's ack; returns the
  // first non-OK status.
  JISC_COORDINATOR_ONLY Status BroadcastAndWait(const ShardEvent& ev);
  // Worker-thread entry point (jisc-worker-entry): everything reachable
  // from here runs on a shard thread, so tools/jisc_verify forbids any
  // path from it to a JISC_COORDINATOR_ONLY method.
  void WorkerLoop(int shard_index);

  Options options_;
  Observability* obs_;
  // Cached from obs_ (nullptr = telemetry off): gauge sites in the
  // Push/flush hot path and the worker loops gate on this one pointer.
  TelemetryRegistry* telemetry_ = nullptr;
  WindowSpec windows_;
  std::string name_;
  std::unique_ptr<LockedSink> locked_sink_;
  std::vector<std::unique_ptr<Shard>> shards_;
  BoundedQueue<Ack> acks_;  // workers -> coordinator (multi-producer)

  // Coordinator-side global window bookkeeping, one deque per stream
  // (count mode holds the live tuples; time mode likewise, pruned by ts).
  std::vector<std::deque<BaseTuple>> live_;

  mutable Metrics agg_metrics_;
};

}  // namespace jisc

#endif  // JISC_EXEC_PARALLEL_EXECUTOR_H_
