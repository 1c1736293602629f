// Concurrency suite for the hash-partitioned parallel execution engine:
// (1) the sharded engine must emit exactly the single-threaded engine's
// output multiset across random plans, window modes and mid-run JISC
// migrations (the single-threaded path is the equivalence oracle);
// (2) the queue primitives must survive multi-producer hammering with
// blocking backpressure and lose nothing across a close/drain.
// This file is the repo's ThreadSanitizer gate: CI runs it under
// JISC_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/random.h"
#include "common/spsc_queue.h"
#include "core/jisc_runtime.h"
#include "core/parallel_engine.h"
#include "exec/parallel_executor.h"
#include "migration/moving_state.h"
#include "plan/transitions.h"
#include "tests/test_util.h"
#include "workload/factory.h"

namespace jisc {
namespace {

using testutil::IdentityMultiset;
using testutil::IdentityOrder;
using testutil::UniformWorkload;

// --- queue primitives ------------------------------------------------------

TEST(BoundedQueueTest, MultiProducerStress) {
  // Tiny capacity so producers constantly hit backpressure.
  BoundedQueue<uint64_t> q(16);
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(static_cast<uint64_t>(p) * kPerProducer + i));
      }
    });
  }
  uint64_t sum = 0;
  uint64_t count = 0;
  std::thread consumer([&] {
    uint64_t v;
    while (count < kProducers * kPerProducer && q.Pop(&v)) {
      sum += v;
      ++count;
    }
  });
  for (auto& t : producers) t.join();
  consumer.join();
  constexpr uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(count, kTotal);
  EXPECT_EQ(sum, kTotal * (kTotal - 1) / 2);  // values are 0..kTotal-1
}

TEST(BoundedQueueTest, CloseDrainsBufferedItems) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  EXPECT_FALSE(q.Push(99));  // rejected after close
  int v;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.Pop(&v));  // closed and drained
}

TEST(BoundedQueueTest, PopUnblocksOnClose) {
  BoundedQueue<int> q(4);
  std::thread consumer([&] {
    int v;
    EXPECT_FALSE(q.Pop(&v));
  });
  q.Close();
  consumer.join();
}

// Regression guards for the notify-while-holding-the-lock self-deadlock
// shape fixed in SpscQueue in PR 1. Audit result: BoundedQueue never had
// it — every notify is issued after the lock is dropped, and the notify
// path cannot re-enter mu_ — but these tests pin the property: a parked
// waiter must be woken by the opposite operation within a tight deadline.
// On regression the queue is closed so the test fails fast instead of
// hanging the whole ctest run on join().

TEST(BoundedQueueTest, ParkedConsumerWokenByPush) {
  BoundedQueue<int> q(4);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    int v = 0;
    if (q.Pop(&v)) {
      EXPECT_EQ(v, 42);
      woke.store(true, std::memory_order_release);
    }
  });
  // Give the consumer time to park on the empty queue, so the Push below
  // exercises the wake-a-parked-waiter path rather than a fast-path pop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(q.Push(42));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!woke.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(woke.load(std::memory_order_acquire))
      << "parked consumer not woken by Push within the deadline";
  if (!woke.load(std::memory_order_acquire)) q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, ParkedProducerWokenByPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));  // fill to capacity
  std::atomic<bool> woke{false};
  std::thread producer([&] {
    if (q.Push(2)) woke.store(true, std::memory_order_release);
  });
  // Give the producer time to park on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  int v = 0;
  ASSERT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!woke.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(woke.load(std::memory_order_acquire))
      << "parked producer not woken by Pop within the deadline";
  if (!woke.load(std::memory_order_acquire)) q.Close();
  producer.join();
  // The unblocked push must have landed.
  ASSERT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 2);
}

TEST(SpscQueueTest, OrderedTransferUnderBackpressure) {
  SpscQueue<uint64_t> q(64);
  constexpr uint64_t kItems = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) ASSERT_TRUE(q.Push(i));
    q.Close();
  });
  uint64_t expected = 0;
  uint64_t v;
  while (q.Pop(&v)) {
    ASSERT_EQ(v, expected);  // SPSC preserves order exactly
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

TEST(SpscQueueTest, TryOpsRespectCapacity) {
  SpscQueue<int> q(4);  // rounds to 4
  int v = 0;
  size_t pushed = 0;
  for (int i = 0; i < 64; ++i) {
    v = i;
    if (q.TryPush(v)) ++pushed;
  }
  EXPECT_EQ(pushed, q.capacity());
  int out;
  size_t popped = 0;
  while (q.TryPop(&out)) ++popped;
  EXPECT_EQ(popped, pushed);
  EXPECT_FALSE(q.TryPop(&out));
}

// Single-item ping-pong in which each side sends only once the other has
// given up spinning and entered its parked loop, so every item crosses the
// park path: the receiver registers as a waiter, re-checks the ring and
// sleeps, and the sender's publish must wake it. The waits are untimed, so
// a lost wakeup would hang; the main thread closes both queues after a
// deadline so such a regression fails instead.
TEST(SpscQueueTest, ParkedPingPongLosesNoWakeups) {
  SpscQueue<uint64_t> ping(2);
  SpscQueue<uint64_t> pong(2);
  constexpr uint64_t kItems = 300;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  auto wait_parked = [&](const SpscQueue<uint64_t>& q) {
    while (q.parked() == 0 && !stop.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  };
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) {
      wait_parked(ping);
      if (!ping.Push(i)) return;
      uint64_t ack = 0;
      if (!pong.Pop(&ack)) return;
      EXPECT_EQ(ack, i);
      acked.store(i + 1, std::memory_order_release);
    }
  });
  std::thread consumer([&] {
    uint64_t v = 0;
    for (uint64_t expected = 0; expected < kItems; ++expected) {
      if (!ping.Pop(&v)) return;
      EXPECT_EQ(v, expected);  // in order, none lost or repeated
      wait_parked(pong);
      if (!pong.Push(v)) return;
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (acked.load(std::memory_order_acquire) < kItems &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(acked.load(std::memory_order_acquire), kItems)
      << "a parked side was not woken by the other side's publish";
  stop.store(true, std::memory_order_release);
  ping.Close();
  pong.Close();
  producer.join();
  consumer.join();
}

// --- sharded engine equivalence -------------------------------------------

// An engine kind through MakeEngineProcessor, with frequent completion
// detection and small shard queues.
std::unique_ptr<StreamProcessor> MakeSharded(
    ProcessorKind kind, const LogicalPlan& plan, const WindowSpec& windows,
    Sink* sink, int parallelism, ProcessorConfig config = ProcessorConfig()) {
  config.maintain_period = 32;  // exercise completion detection often
  config.parallelism = parallelism;
  config.shards.queue_capacity = 8;  // small queues: hit backpressure in tests
  config.shards.batch_size = 4;
  EngineRecipe recipe = EngineRecipeFor(kind, config);
  return MakeEngineProcessor(plan, windows, sink, recipe.strategy_factory,
                             recipe.config);
}

// Runs the identical workload + transition schedule through the
// single-threaded oracle and the sharded engine, and compares output and
// retraction multisets.
void ExpectShardedMatchesOracle(ProcessorKind kind,
                                const LogicalPlan& plan,
                                const WindowSpec& windows,
                                const std::vector<BaseTuple>& tuples,
                                const std::map<size_t, LogicalPlan>& schedule,
                                int parallelism) {
  CollectingSink oracle_sink;
  auto oracle = MakeSharded(kind, plan, windows, &oracle_sink, 1);
  CollectingSink sharded_sink;
  auto sharded = MakeSharded(kind, plan, windows, &sharded_sink, parallelism);
  for (size_t i = 0; i < tuples.size(); ++i) {
    auto it = schedule.find(i);
    if (it != schedule.end()) {
      ASSERT_TRUE(oracle->RequestTransition(it->second).ok());
      ASSERT_TRUE(sharded->RequestTransition(it->second).ok());
    }
    oracle->Push(tuples[i]);
    sharded->Push(tuples[i]);
  }
  // parallelism 1 routes to a plain (synchronous) Engine; otherwise quiesce
  // the shards so the collected outputs are complete.
  auto* parallel = dynamic_cast<ParallelExecutor*>(sharded.get());
  if (parallelism > 1) {
    ASSERT_NE(parallel, nullptr);
    parallel->Barrier();
  } else {
    ASSERT_EQ(parallel, nullptr);
  }
  EXPECT_EQ(IdentityMultiset(sharded_sink.outputs()),
            IdentityMultiset(oracle_sink.outputs()))
      << "outputs diverge at parallelism " << parallelism;
  EXPECT_EQ(IdentityMultiset(sharded_sink.retractions()),
            IdentityMultiset(oracle_sink.retractions()))
      << "retractions diverge at parallelism " << parallelism;
  EXPECT_GT(sharded_sink.outputs().size(), 0u)
      << "vacuous equivalence: workload produced no outputs";
}

TEST(ParallelEquivalenceTest, LeftDeepWithJiscMigration) {
  int streams = 4;
  uint64_t window = 40;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  LogicalPlan reversed = LogicalPlan::LeftDeep(
      WorstCaseOrder(IdentityOrder(streams)), OpKind::kHashJoin);
  auto tuples = UniformWorkload(streams, window, 1200, /*seed=*/11);
  std::map<size_t, LogicalPlan> schedule{{500, reversed}, {900, plan}};
  for (int shards : {1, 2, 4}) {
    ExpectShardedMatchesOracle(ProcessorKind::kJisc, plan,
                               WindowSpec::Uniform(streams, window), tuples,
                               schedule, shards);
  }
}

TEST(ParallelEquivalenceTest, BushyWithJiscMigration) {
  int streams = 5;
  uint64_t window = 30;
  LogicalPlan plan =
      LogicalPlan::BalancedBushy(IdentityOrder(streams), OpKind::kHashJoin);
  LogicalPlan left_deep =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  auto tuples = UniformWorkload(streams, window, 1000, /*seed=*/23);
  std::map<size_t, LogicalPlan> schedule{{400, left_deep}};
  ExpectShardedMatchesOracle(ProcessorKind::kJisc, plan,
                             WindowSpec::Uniform(streams, window), tuples,
                             schedule, 3);
}

TEST(ParallelEquivalenceTest, MovingStateStrategy) {
  int streams = 4;
  uint64_t window = 35;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  LogicalPlan swapped = LogicalPlan::LeftDeep(
      SwapPositions(IdentityOrder(streams), 1, 3), OpKind::kHashJoin);
  auto tuples = UniformWorkload(streams, window, 900, /*seed=*/31);
  std::map<size_t, LogicalPlan> schedule{{450, swapped}};
  ExpectShardedMatchesOracle(ProcessorKind::kMovingState, plan,
                             WindowSpec::Uniform(streams, window), tuples,
                             schedule, 4);
}

TEST(ParallelEquivalenceTest, TimeBasedWindows) {
  int streams = 3;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  LogicalPlan swapped = LogicalPlan::LeftDeep(
      SwapPositions(IdentityOrder(streams), 0, 2), OpKind::kHashJoin);
  SourceConfig cfg;
  cfg.num_streams = streams;
  cfg.key_domain = 25;
  cfg.seed = 47;
  cfg.ts_stride = 1;  // event time advances every arrival
  SyntheticSource src(cfg);
  auto tuples = src.NextBatch(900);
  std::map<size_t, LogicalPlan> schedule{{400, swapped}};
  ExpectShardedMatchesOracle(ProcessorKind::kJisc, plan,
                             WindowSpec::UniformTime(streams, 90), tuples,
                             schedule, 3);
}

TEST(ParallelEquivalenceTest, RandomPlansAndSchedules) {
  Rng rng(0xfeedULL);
  for (int round = 0; round < 6; ++round) {
    int streams = 3 + static_cast<int>(rng.UniformU64(3));  // 3..5
    uint64_t window = 20 + rng.UniformU64(40);
    std::vector<StreamId> order = IdentityOrder(streams);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformU64(i)]);
    }
    bool bushy = streams >= 4 && rng.Bernoulli(0.5);
    LogicalPlan plan = bushy
        ? LogicalPlan::BalancedBushy(order, OpKind::kHashJoin)
        : LogicalPlan::LeftDeep(order, OpKind::kHashJoin);
    std::vector<StreamId> order2 = order;
    for (size_t i = order2.size(); i > 1; --i) {
      std::swap(order2[i - 1], order2[rng.UniformU64(i)]);
    }
    LogicalPlan next = LogicalPlan::LeftDeep(order2, OpKind::kHashJoin);
    size_t total = 600 + rng.UniformU64(400);
    auto tuples = UniformWorkload(streams, window, total, rng.Next());
    std::map<size_t, LogicalPlan> schedule{{total / 2, next}};
    int shards = 2 + static_cast<int>(rng.UniformU64(3));  // 2..4
    SCOPED_TRACE("round " + std::to_string(round) + " plan " +
                 plan.ToString() + " shards " + std::to_string(shards));
    ExpectShardedMatchesOracle(ProcessorKind::kJisc, plan,
                               WindowSpec::Uniform(streams, window), tuples,
                               schedule, shards);
  }
}

// --- sharded engine behavior ----------------------------------------------

TEST(ParallelExecutorTest, RejectsThetaPlans) {
  std::vector<StreamId> order = IdentityOrder(3);
  LogicalPlan theta = LogicalPlan::LeftDeep(order, OpKind::kNljJoin);
  EXPECT_FALSE(ParallelExecutor::ValidateShardable(theta).ok());
  LogicalPlan hash = LogicalPlan::LeftDeep(order, OpKind::kHashJoin);
  EXPECT_TRUE(ParallelExecutor::ValidateShardable(hash).ok());

  // A running sharded engine refuses to migrate to a theta plan.
  CountingSink sink;
  auto proc = MakeSharded(ProcessorKind::kJisc, hash,
                          WindowSpec::Uniform(3, 20), &sink, 2);
  EXPECT_FALSE(proc->RequestTransition(theta).ok());
}

TEST(ParallelExecutorTest, MetricsAggregateAcrossShards) {
  int streams = 3;
  uint64_t window = 30;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  CountingSink sink;
  auto proc = MakeSharded(ProcessorKind::kJisc, plan,
                          WindowSpec::Uniform(streams, window), &sink, 4);
  auto tuples = UniformWorkload(streams, window, 600, /*seed=*/5);
  for (const BaseTuple& t : tuples) proc->Push(t);
  const Metrics& m = proc->metrics();  // quiesces all shards
  EXPECT_EQ(m.arrivals, tuples.size());
  EXPECT_EQ(m.outputs, sink.outputs());
  EXPECT_GT(m.probes, 0u);
  EXPECT_GT(proc->StateMemory(), 0u);
}

TEST(ParallelExecutorTest, JiscCompletionRunsPerShard) {
  int streams = 4;
  uint64_t window = 50;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  LogicalPlan reversed = LogicalPlan::LeftDeep(
      WorstCaseOrder(IdentityOrder(streams)), OpKind::kHashJoin);
  CountingSink sink;
  auto proc = MakeSharded(ProcessorKind::kJisc, plan,
                          WindowSpec::Uniform(streams, window), &sink, 4);
  auto tuples = UniformWorkload(streams, window, 2000, /*seed=*/77);
  size_t half = tuples.size() / 2;
  for (size_t i = 0; i < half; ++i) proc->Push(tuples[i]);
  ASSERT_TRUE(proc->RequestTransition(reversed).ok());
  for (size_t i = half; i < tuples.size(); ++i) proc->Push(tuples[i]);
  // The worst-case reorder leaves every intermediate state incomplete;
  // post-transition traffic must trigger per-shard lazy completion.
  EXPECT_GT(proc->metrics().completions, 0u);
}

TEST(ParallelExecutorTest, MetricsApproxIsSafeFromMonitoringThread) {
  // metrics()/StateMemory() are coordinator-only (they quiesce the shards);
  // MetricsApprox() is the one observation entry point another thread may
  // hit while the coordinator keeps pushing. TSan gates this.
  int streams = 3;
  uint64_t window = 30;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  CountingSink sink;
  auto proc = MakeSharded(ProcessorKind::kJisc, plan,
                          WindowSpec::Uniform(streams, window), &sink, 4);
  auto* parallel = dynamic_cast<ParallelExecutor*>(proc.get());
  ASSERT_NE(parallel, nullptr);
  std::atomic<bool> done{false};
  uint64_t last_seen = 0;
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      Metrics snap = parallel->MetricsApprox();
      uint64_t arrivals = snap.arrivals;
      EXPECT_GE(arrivals, last_seen);  // counters are monotone
      last_seen = arrivals;
      std::this_thread::yield();
    }
  });
  auto tuples = UniformWorkload(streams, window, 3000, /*seed=*/61);
  for (const BaseTuple& t : tuples) proc->Push(t);
  parallel->Barrier();
  done.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(parallel->MetricsApprox().arrivals, tuples.size());
  EXPECT_EQ(proc->metrics().arrivals, tuples.size());
}

TEST(ParallelExecutorTest, MetricsApproxTotalsAreMonotone) {
  // Regression for the Metrics snapshot-consistency contract (metrics.h):
  // each counter in a MetricsApprox() snapshot is an atomic (never torn)
  // read, and every counter only grows under execution — so successive
  // snapshots must be monotone per counter AND in the WorkUnits() total,
  // even though the snapshot is not cross-counter consistent. A torn or
  // reordered read would show up as a dip here under TSan/stress.
  int streams = 3;
  uint64_t window = 30;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  CountingSink sink;
  auto proc = MakeSharded(ProcessorKind::kJisc, plan,
                          WindowSpec::Uniform(streams, window), &sink, 4);
  auto* parallel = dynamic_cast<ParallelExecutor*>(proc.get());
  ASSERT_NE(parallel, nullptr);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_taken{0};
  std::thread monitor([&] {
    Metrics prev;  // zero-initialized: any first snapshot is >= it
    uint64_t prev_work = 0;
    while (!done.load(std::memory_order_acquire)) {
      Metrics snap = parallel->MetricsApprox();
      EXPECT_GE(snap.arrivals, prev.arrivals);
      EXPECT_GE(snap.probes, prev.probes);
      EXPECT_GE(snap.inserts, prev.inserts);
      EXPECT_GE(snap.outputs, prev.outputs);
      EXPECT_GE(snap.completions, prev.completions);
      EXPECT_GE(snap.removals, prev.removals);
      uint64_t work = snap.WorkUnits();
      EXPECT_GE(work, prev_work);
      prev = snap;
      prev_work = work;
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  auto tuples = UniformWorkload(streams, window, 3000, /*seed=*/29);
  for (const BaseTuple& t : tuples) proc->Push(t);
  parallel->Barrier();
  done.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_GT(snapshots_taken.load(), 0u);
  // After quiescing, the approximate view converges to the exact one.
  EXPECT_EQ(parallel->MetricsApprox().arrivals, proc->metrics().arrivals);
}

// --- fluid migration under sharding ---------------------------------------
//
// Fluid state: one FluidJiscStrategy per shard (the factory builds a fresh
// instance per shard engine, so the drain ledger is shard-local and never
// shared across threads). TSan gates this section like the rest of the file.

using CounterList = std::vector<std::pair<std::string, uint64_t>>;

// `pause` > 0 makes the producer sleep after every push, so each worker
// drains its feed between events and the adaptive hand-off sends batches
// of one or two events instead of full ones.
CounterList RunShardedFluid(
    int parallelism, ParallelExecutor::Options popts, CollectingSink* sink,
    FluidOptions::Mode mode = FluidOptions::Mode::kFluid,
    std::chrono::microseconds pause = std::chrono::microseconds(0)) {
  int streams = 4;
  uint64_t window = 40;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  LogicalPlan reversed = LogicalPlan::LeftDeep(
      WorstCaseOrder(IdentityOrder(streams)), OpKind::kHashJoin);
  ProcessorConfig config;
  config.fluid.mode = mode;
  config.fluid.batch_keys = 2;  // keep the per-shard drain alive across events
  config.shards = popts;
  auto proc = MakeSharded(ProcessorKind::kJisc, plan,
                          WindowSpec::Uniform(streams, window), sink,
                          parallelism, config);
  auto tuples = UniformWorkload(streams, window, 1200, /*seed=*/11);
  std::map<size_t, LogicalPlan> schedule{{500, reversed}, {900, plan}};
  for (size_t i = 0; i < tuples.size(); ++i) {
    auto it = schedule.find(i);
    if (it != schedule.end()) {
      EXPECT_TRUE(proc->RequestTransition(it->second).ok());
    }
    proc->Push(tuples[i]);
    if (pause.count() > 0) std::this_thread::sleep_for(pause);
  }
  return proc->metrics().NamedCounters();  // quiesces all shards
}

TEST(ParallelFluidTest, FourShardFluidMatchesSingleThreadedOracle) {
  // Output/retraction multisets are the cross-parallelism invariant;
  // aggregated counters are not (count-window expiry is per shard, so even
  // all-at-once runs charge differently at different shard counts).
  CollectingSink oracle_sink;
  RunShardedFluid(1, ParallelExecutor::Options(), &oracle_sink);
  CollectingSink sharded_sink;
  RunShardedFluid(4, ParallelExecutor::Options(), &sharded_sink);
  EXPECT_EQ(IdentityMultiset(sharded_sink.outputs()),
            IdentityMultiset(oracle_sink.outputs()));
  EXPECT_EQ(IdentityMultiset(sharded_sink.retractions()),
            IdentityMultiset(oracle_sink.retractions()));
  EXPECT_GT(sharded_sink.outputs().size(), 0u);
}

TEST(ParallelFluidTest, RepeatedShardedFluidRunsAreDeterministic) {
  CollectingSink sink1;
  auto run1 = RunShardedFluid(4, ParallelExecutor::Options(), &sink1);
  CollectingSink sink2;
  auto run2 = RunShardedFluid(4, ParallelExecutor::Options(), &sink2);
  EXPECT_EQ(run1, run2);
  EXPECT_EQ(IdentityMultiset(sink1.outputs()),
            IdentityMultiset(sink2.outputs()));
}

uint64_t CounterValue(const CounterList& counters, const std::string& name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

TEST(ParallelFluidTest, ThrottledProducerMatchesOracle) {
  const auto pause = std::chrono::microseconds(20);
  for (FluidOptions::Mode mode :
       {FluidOptions::Mode::kAllAtOnce, FluidOptions::Mode::kFluid}) {
    SCOPED_TRACE(mode == FluidOptions::Mode::kFluid ? "fluid"
                                                    : "all-at-once");
    const ParallelExecutor::Options popts;
    CollectingSink oracle_sink;
    auto oracle = RunShardedFluid(1, popts, &oracle_sink, mode);
    CollectingSink batched_sink;
    auto batched = RunShardedFluid(4, popts, &batched_sink, mode);
    CollectingSink throttled_sink;
    auto throttled = RunShardedFluid(4, popts, &throttled_sink, mode, pause);
    EXPECT_EQ(IdentityMultiset(throttled_sink.outputs()),
              IdentityMultiset(oracle_sink.outputs()));
    EXPECT_EQ(IdentityMultiset(throttled_sink.retractions()),
              IdentityMultiset(oracle_sink.retractions()));
    EXPECT_GT(throttled_sink.outputs().size(), 0u);
    // Batch boundaries never change a shard's event sequence, so every
    // counter matches the unthrottled run at the same shard count. Across
    // shard counts only the input/output totals are invariant (count-window
    // expiry is charged per shard).
    EXPECT_EQ(throttled, batched);
    for (const char* name : {"arrivals", "outputs", "retractions"}) {
      EXPECT_EQ(CounterValue(throttled, name), CounterValue(oracle, name))
          << name;
    }
  }
}

TEST(ParallelFluidTest, StragglerShardDoesNotPerturbFluidCounters) {
  // A wall-clock straggler fault changes thread interleaving, not work:
  // the faulted fluid run's deterministic counters and output multiset
  // match the clean run's exactly.
  CollectingSink clean_sink;
  auto clean = RunShardedFluid(4, ParallelExecutor::Options(), &clean_sink);
  ParallelExecutor::Options faulted_opts;
  faulted_opts.straggler_shard = 2;
  faulted_opts.straggler_stall_ns = 200000;  // 0.2 ms
  faulted_opts.straggler_stall_every = 64;
  CollectingSink faulted_sink;
  auto faulted = RunShardedFluid(4, faulted_opts, &faulted_sink);
  EXPECT_EQ(clean, faulted);
  EXPECT_EQ(IdentityMultiset(clean_sink.outputs()),
            IdentityMultiset(faulted_sink.outputs()));
}

// Counts outputs with an atomic so the test thread can poll it while the
// shard workers deliver.
class AtomicCountingSink : public Sink {
 public:
  void OnOutput(const Tuple&, Stamp) override {
    outputs_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t outputs() const { return outputs_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> outputs_{0};
};

TEST(ParallelExecutorTest, IdleExecutorDeliversWithoutBarrier) {
  // Fewer tuples than batch_size, all on one key, each pushed once the
  // worker has processed the one before (its arrival counter shows it):
  // the worker is idle at every push, so the event must be handed off at
  // once rather than wait for a full batch or a Barrier. (An event pushed
  // while the worker still holds an untaken batch waits for the next push
  // or a Barrier instead; nothing else flushes it.)
  int streams = 2;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(streams, 100);
  std::vector<BaseTuple> tuples;
  for (uint64_t i = 0; i < 6; ++i) {
    BaseTuple t;
    t.stream = static_cast<StreamId>(i % 2);
    t.key = 7;
    t.seq = i + 1;
    t.ts = i + 1;
    tuples.push_back(t);
  }
  CountingSink oracle_sink;
  auto oracle = MakeEngineProcessor(
      plan, windows, &oracle_sink, [] { return MakeJiscStrategy(); },
      ProcessorConfig());
  for (const BaseTuple& t : tuples) oracle->Push(t);
  const uint64_t expected = oracle_sink.outputs();
  ASSERT_GT(expected, 0u);

  ProcessorConfig eopts;
  eopts.parallelism = 3;
  ASSERT_GT(eopts.shards.batch_size, tuples.size());
  AtomicCountingSink sink;
  auto proc = MakeEngineProcessor(
      plan, windows, &sink, [] { return MakeJiscStrategy(); }, eopts);
  auto* parallel = dynamic_cast<ParallelExecutor*>(proc.get());
  ASSERT_NE(parallel, nullptr);
  // Polls (without quiescing) until `done` holds or a generous deadline.
  auto poll = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return done();
  };
  for (size_t i = 0; i < tuples.size(); ++i) {
    proc->Push(tuples[i]);
    ASSERT_TRUE(poll([&] {
      return parallel->MetricsApprox().arrivals.value() == i + 1;
    })) << "tuple " << i << " not delivered to its idle shard";
  }
  EXPECT_TRUE(poll([&] { return sink.outputs() == expected; }))
      << "outputs of an idle executor must arrive without a Barrier; got "
      << sink.outputs() << " of " << expected;
}

TEST(ParallelExecutorTest, BackpressureSurvivesTinyQueues) {
  int streams = 3;
  uint64_t window = 25;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  ProcessorConfig eopts;
  eopts.parallelism = 8;
  eopts.shards.queue_capacity = 2;  // maximal contention on the feeds
  eopts.shards.batch_size = 1;
  CountingSink sink;
  auto proc = MakeEngineProcessor(
      plan, WindowSpec::Uniform(streams, window), &sink,
      [] { return MakeJiscStrategy(); }, eopts);
  auto tuples = UniformWorkload(streams, window, 4000, /*seed=*/13);
  for (const BaseTuple& t : tuples) proc->Push(t);
  EXPECT_EQ(proc->metrics().arrivals, tuples.size());
}

}  // namespace
}  // namespace jisc
