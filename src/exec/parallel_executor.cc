#include "exec/parallel_executor.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/observability.h"
#include "obs/trace.h"

namespace jisc {

ParallelExecutor::ParallelExecutor(const LogicalPlan& plan,
                                   const WindowSpec& windows, Sink* sink,
                                   const ShardFactory& factory,
                                   int num_shards, Observability* obs,
                                   Options options)
    : options_(options),
      obs_(obs),
      windows_(windows),
      acks_(static_cast<size_t>(num_shards > 0 ? num_shards : 1)),
      live_(static_cast<size_t>(windows.num_streams())) {
  JISC_CHECK(num_shards >= 1);
  JISC_CHECK(options_.batch_size >= 1);
  Status shardable = ValidateShardable(plan);
  JISC_CHECK(shardable.ok()) << shardable.ToString();
  if (obs_ != nullptr) telemetry_ = obs_->telemetry.get();
  if (telemetry_ != nullptr) {
    // Track 0 is the coordinator; shard i records on track i + 1 (same
    // numbering as the trace recorder).
    telemetry_->RegisterTracks(1 + num_shards);
  }
  if (sink != nullptr) {
    locked_sink_ = std::make_unique<LockedSink>(sink);
  }
  for (int i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>(options_.queue_capacity);
    if (locked_sink_ != nullptr) {
      shard->outbox = std::make_unique<Outbox>(locked_sink_.get());
    }
    shard->processor = factory(shard->outbox.get(), i);
    JISC_CHECK(shard->processor != nullptr);
    shard->pending.reserve(options_.batch_size);
    shard->index = i;
    shards_.push_back(std::move(shard));
  }
  name_ = "parallel-" + std::to_string(num_shards) + "x-" +
          shards_[0]->processor->name();
  // Workers start only after every shard is fully constructed: the shard
  // vector is immutable (and safely published) from here on.
  for (int i = 0; i < num_shards; ++i) {
    shards_[static_cast<size_t>(i)]->thread =
        std::thread([this, i] { WorkerLoop(i); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  FlushAll();
  for (auto& s : shards_) s->feed.Close();
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
  acks_.Close();
}

Status ParallelExecutor::ValidateShardable(const LogicalPlan& plan) {
  Status valid = plan.Validate();
  if (!valid.ok()) return valid;
  for (int id = 0; id < plan.num_nodes(); ++id) {
    if (plan.node(id).kind == OpKind::kNljJoin) {
      return Status::InvalidArgument(
          "theta (nested-loops) plans match across key boundaries and "
          "cannot be hash-partitioned");
    }
  }
  return Status::Ok();
}

int ParallelExecutor::OwnerShard(JoinKey key) const {
  return static_cast<int>(MixU64(static_cast<uint64_t>(key)) %
                          static_cast<uint64_t>(shards_.size()));
}

void ParallelExecutor::Enqueue(int shard, ShardEvent ev) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  s.pending.push_back(std::move(ev));
  // Hand off at the cap, or as soon as the worker has taken every batch
  // sent so far: an idle worker gets each event at once, while a busy one
  // lets the next batch fill up to batch_size behind the one it holds.
  if (s.pending.size() >= options_.batch_size || s.feed.SizeApprox() == 0) {
    FlushShard(s);
  }
}

void ParallelExecutor::FlushShard(Shard& s) {
  if (s.pending.empty()) return;
  // The sent batch is sized to its contents (an idle worker's batches hold
  // an event or two); pending keeps its batch_size capacity for the next.
  EventBatch batch(std::make_move_iterator(s.pending.begin()),
                   std::make_move_iterator(s.pending.end()));
  s.pending.clear();
  if (telemetry_ == nullptr) {
    bool pushed = s.feed.Push(std::move(batch));
    JISC_CHECK(pushed) << "shard feed closed while pushing";
    return;
  }
  const int track = s.index + 1;
  // TryPush first so the common uncontended hand-off takes zero clock
  // reads; only a full feed (the coordinator about to block on
  // backpressure) pays for two timestamps to meter the stall.
  if (!s.feed.TryPush(batch)) {
    uint64_t t0 = telemetry_->NowNs();
    bool pushed = s.feed.Push(std::move(batch));
    JISC_CHECK(pushed) << "shard feed closed while pushing";
    telemetry_->OnStall(track, telemetry_->NowNs() - t0);
  }
  telemetry_->SetQueueDepth(track, s.feed.SizeApprox());
}

void ParallelExecutor::FlushAll() {
  for (auto& s : shards_) FlushShard(*s);
}

void ParallelExecutor::Push(const BaseTuple& tuple) {
  JISC_CHECK(tuple.stream < live_.size());
  if (telemetry_ != nullptr) telemetry_->OnInput(tuple.seq);
  std::deque<BaseTuple>& window = live_[tuple.stream];
  // Global window slide: same trigger as StreamScan::OnArrival, but the
  // displaced tuple's expiry is routed to the shard that owns it, ahead of
  // the arrival (same-key expiry and arrival share a shard, so the
  // "removal before displacing arrival" invariant survives sharding).
  uint64_t size = windows_.SizeFor(tuple.stream);
  if (windows_.time_based()) {
    while (!window.empty() && window.front().ts + size <= tuple.ts) {
      ShardEvent ev;
      ev.kind = ShardEvent::Kind::kExpire;
      ev.base = window.front();
      Enqueue(OwnerShard(ev.base.key), std::move(ev));
      window.pop_front();
    }
  } else if (window.size() >= size) {
    ShardEvent ev;
    ev.kind = ShardEvent::Kind::kExpire;
    ev.base = window.front();
    Enqueue(OwnerShard(ev.base.key), std::move(ev));
    window.pop_front();
  }
  window.push_back(tuple);
  ShardEvent ev;
  ev.kind = ShardEvent::Kind::kArrival;
  ev.base = tuple;
  Enqueue(OwnerShard(tuple.key), std::move(ev));
}

Status ParallelExecutor::BroadcastAndWait(const ShardEvent& ev) {
  FlushAll();
  for (size_t i = 0; i < shards_.size(); ++i) {
    EventBatch batch;
    batch.push_back(ev);
    bool pushed = shards_[i]->feed.Push(std::move(batch));
    JISC_CHECK(pushed) << "shard feed closed during broadcast";
  }
  Status first_error;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Ack ack;
    bool ok = acks_.Pop(&ack);
    JISC_CHECK(ok) << "ack queue closed while waiting for shards";
    if (!ack.status.ok() && first_error.ok()) first_error = ack.status;
  }
  return first_error;
}

Status ParallelExecutor::RequestTransition(const LogicalPlan& new_plan) {
  Status shardable = ValidateShardable(new_plan);
  if (!shardable.ok()) return shardable;
  // Coordinator-side view of the whole broadcast (track 0); each shard
  // records its own migration-phase spans on track shard + 1.
  TraceScope span(obs_ != nullptr ? &obs_->trace : nullptr,
                  "transition-broadcast", "migration", /*track=*/0);
  ShardEvent ev;
  ev.kind = ShardEvent::Kind::kTransition;
  ev.plan = std::make_shared<const LogicalPlan>(new_plan);
  // Broadcast at the same point of every shard's event sequence: each
  // shard's transition separates exactly the globally pre-transition
  // arrivals from post-transition ones, so per-shard freshness (Def. 2)
  // and completion (Section 4.3) see the same old/new split as the
  // single-threaded engine.
  return BroadcastAndWait(ev);
}

void ParallelExecutor::Barrier() {
  TraceScope span(obs_ != nullptr ? &obs_->trace : nullptr,
                  "barrier", "migration", /*track=*/0);
  ShardEvent ev;
  ev.kind = ShardEvent::Kind::kBarrier;
  Status s = BroadcastAndWait(ev);
  JISC_CHECK(s.ok()) << s.ToString();
}

const Metrics& ParallelExecutor::metrics() const {
  const_cast<ParallelExecutor*>(this)->Barrier();
  agg_metrics_.Reset();
  for (const auto& s : shards_) agg_metrics_ += s->processor->metrics();
  return agg_metrics_;
}

uint64_t ParallelExecutor::StateMemory() const {
  const_cast<ParallelExecutor*>(this)->Barrier();
  uint64_t bytes = 0;
  for (const auto& s : shards_) bytes += s->processor->StateMemory();
  return bytes;
}

Metrics ParallelExecutor::MetricsApprox() const {
  // Shard Engine::metrics() returns a reference to counters that their
  // worker updates with relaxed atomic stores, so summing them while
  // workers run is race-free (though a batch may be caught mid-flight).
  Metrics m;
  for (const auto& s : shards_) m += s->processor->metrics();
  return m;
}

void ParallelExecutor::Outbox::Add(const Tuple& tuple, Stamp stamp,
                                   bool retract) {
  // Only an empty outbox may deliver directly: a queued output must never
  // be overtaken by a later one of the same shard.
  if (size_ == 0 && sink_->TryDeliver(tuple, stamp, retract)) return;
  if (size_ == slots_.size()) slots_.emplace_back();
  LockedSink::Delivery& slot = slots_[size_++];
  slot.tuple = tuple;  // copy-assignment reuses the slot's part storage
  slot.stamp = stamp;
  slot.retract = retract;
  if (size_ == kOutboxCap) Drain();
}

void ParallelExecutor::Outbox::Drain() {
  if (size_ == 0) return;
  sink_->DeliverAll(slots_.data(), size_);
  size_ = 0;
}

// jisc-worker-entry: runs on a shard thread; calling any
// JISC_COORDINATOR_ONLY method from here is a lint error.
void ParallelExecutor::WorkerLoop(int shard_index) {
  Shard& s = *shards_[static_cast<size_t>(shard_index)];
  StreamProcessor* proc = s.processor.get();
  Outbox* outbox = s.outbox.get();
  // Catches the sink up with this shard: after every batch, before every
  // ack (so Barrier() returns with the sink caught up) and on exit.
  auto drain = [outbox] {
    if (outbox != nullptr) outbox->Drain();
  };
  const int track = shard_index + 1;
  // Injected straggler (tests/scenarios): periodic wall-clock sleeps on one
  // worker, no effect on outputs or deterministic counters.
  const bool inject = shard_index == options_.straggler_shard &&
                      options_.straggler_stall_ns > 0 &&
                      options_.straggler_stall_every > 0;
  uint64_t injected_events = 0;
  EventBatch batch;
  while (s.feed.Pop(&batch)) {
    for (ShardEvent& ev : batch) {
      if (inject && ++injected_events % options_.straggler_stall_every == 0) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(options_.straggler_stall_ns));
      }
      switch (ev.kind) {
        case ShardEvent::Kind::kArrival:
          proc->Push(ev.base);
          break;
        case ShardEvent::Kind::kExpire:
          proc->PushExpiry(ev.base);
          break;
        case ShardEvent::Kind::kTransition: {
          Ack ack;
          ack.shard = shard_index;
          ack.status = proc->RequestTransition(*ev.plan);
          drain();
          bool pushed = acks_.Push(std::move(ack));
          JISC_CHECK(pushed);
          break;
        }
        case ShardEvent::Kind::kBarrier: {
          drain();
          Ack ack;
          ack.shard = shard_index;
          bool pushed = acks_.Push(std::move(ack));
          JISC_CHECK(pushed);
          break;
        }
      }
    }
    batch.clear();
    drain();
    // Consumer-side refresh: the depth gauge must fall back to zero when
    // the worker catches up even if the coordinator stopped flushing, or
    // the watchdog would see phantom backlog on an idle shard.
    if (telemetry_ != nullptr) {
      telemetry_->SetQueueDepth(track, s.feed.SizeApprox());
    }
  }
  drain();
}

}  // namespace jisc
