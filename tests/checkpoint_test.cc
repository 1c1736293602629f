// Engine checkpoint/restore: a restored engine must behave
// tuple-for-tuple like the uninterrupted one.

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/checkpoint.h"
#include "core/jisc_runtime.h"
#include "exec/ingress_guard.h"
#include "migration/moving_state.h"
#include "plan/transitions.h"
#include "tests/test_util.h"
#include "workload/factory.h"

namespace jisc {
namespace {

using testutil::IdentityMultiset;
using testutil::IdentityOrder;
using testutil::UniformWorkload;

TEST(CheckpointTest, ResumeIsTupleForTupleEquivalent) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  auto tuples = UniformWorkload(4, 4, 600);

  // Uninterrupted run.
  CollectingSink full_sink;
  Engine full(plan, windows, &full_sink, MakeJiscStrategy());
  for (const auto& t : tuples) full.Push(t);

  // Run half, checkpoint, restore, run the rest.
  CollectingSink first_sink;
  Engine first(plan, windows, &first_sink, MakeJiscStrategy());
  for (size_t i = 0; i < 300; ++i) first.Push(tuples[i]);
  auto bytes = CheckpointEngine(first);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  CollectingSink second_sink;
  auto restored = RestoreEngine(bytes.value(), &second_sink,
                                MakeJiscStrategy());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (size_t i = 300; i < tuples.size(); ++i) {
    restored.value()->Push(tuples[i]);
  }

  // First half + second half == uninterrupted run, exactly.
  auto combined_outputs = IdentityMultiset(first_sink.outputs());
  for (const Tuple& t : second_sink.outputs()) {
    combined_outputs.insert(t.IdentityHash());
  }
  EXPECT_EQ(combined_outputs, IdentityMultiset(full_sink.outputs()));
  auto combined_retractions = IdentityMultiset(first_sink.retractions());
  for (const Tuple& t : second_sink.retractions()) {
    combined_retractions.insert(t.IdentityHash());
  }
  EXPECT_EQ(combined_retractions, IdentityMultiset(full_sink.retractions()));
}

TEST(CheckpointTest, RestoredEngineCanMigrate) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep(WorstCaseOrder(IdentityOrder(4)),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  auto tuples = UniformWorkload(4, 4, 600);

  CollectingSink full_sink;
  Engine full(plan, windows, &full_sink, MakeJiscStrategy());
  for (size_t i = 0; i < 300; ++i) full.Push(tuples[i]);
  ASSERT_TRUE(full.RequestTransition(next).ok());
  for (size_t i = 300; i < tuples.size(); ++i) full.Push(tuples[i]);

  CollectingSink a_sink;
  Engine a(plan, windows, &a_sink, MakeJiscStrategy());
  for (size_t i = 0; i < 300; ++i) a.Push(tuples[i]);
  auto bytes = CheckpointEngine(a);
  ASSERT_TRUE(bytes.ok());
  CollectingSink b_sink;
  auto b = RestoreEngine(bytes.value(), &b_sink, MakeJiscStrategy());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b.value()->RequestTransition(next).ok());
  for (size_t i = 300; i < tuples.size(); ++i) b.value()->Push(tuples[i]);

  auto combined = IdentityMultiset(a_sink.outputs());
  for (const Tuple& t : b_sink.outputs()) combined.insert(t.IdentityHash());
  EXPECT_EQ(combined, IdentityMultiset(full_sink.outputs()));
}

TEST(CheckpointTest, RejectsMidMigrationCheckpoints) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep({3, 2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  auto tuples = UniformWorkload(4, 4, 100);
  for (const auto& t : tuples) engine.Push(t);
  ASSERT_TRUE(engine.RequestTransition(next).ok());
  // Incomplete states exist right after the lazy transition.
  EXPECT_EQ(CheckpointEngine(engine).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, RejectsBufferedArrivals) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  engine.PushNoDrain(UniformWorkload(2, 2, 1)[0]);
  EXPECT_EQ(CheckpointEngine(engine).status().code(),
            StatusCode::kFailedPrecondition);
  engine.Drain();
  EXPECT_TRUE(CheckpointEngine(engine).ok());
}

TEST(CheckpointTest, RejectsCorruptBytes) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  for (const auto& t : UniformWorkload(2, 2, 50)) engine.Push(t);
  auto bytes = CheckpointEngine(engine);
  ASSERT_TRUE(bytes.ok());

  CollectingSink s2;
  EXPECT_FALSE(RestoreEngine("garbage", &s2, MakeJiscStrategy()).ok());
  std::string truncated = bytes.value().substr(0, bytes.value().size() / 2);
  EXPECT_FALSE(RestoreEngine(truncated, &s2, MakeJiscStrategy()).ok());
  std::string trailing = bytes.value() + "xx";
  EXPECT_FALSE(RestoreEngine(trailing, &s2, MakeJiscStrategy()).ok());
  std::string flipped = bytes.value();
  flipped[0] ^= 0x5a;  // magic
  EXPECT_FALSE(RestoreEngine(flipped, &s2, MakeJiscStrategy()).ok());
}

TEST(CheckpointTest, TimeWindowsRoundTrip) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::UniformTime(3, 20);
  auto tuples = UniformWorkload(3, 4, 400);

  CollectingSink full_sink;
  Engine full(plan, windows, &full_sink, MakeJiscStrategy());
  for (const auto& t : tuples) full.Push(t);

  CollectingSink a_sink;
  Engine a(plan, windows, &a_sink, MakeJiscStrategy());
  for (size_t i = 0; i < 200; ++i) a.Push(tuples[i]);
  auto bytes = CheckpointEngine(a);
  ASSERT_TRUE(bytes.ok());
  CollectingSink b_sink;
  auto b = RestoreEngine(bytes.value(), &b_sink, MakeJiscStrategy());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.value()->windows().time_based());
  for (size_t i = 200; i < tuples.size(); ++i) b.value()->Push(tuples[i]);

  auto combined = IdentityMultiset(a_sink.outputs());
  for (const Tuple& t : b_sink.outputs()) combined.insert(t.IdentityHash());
  EXPECT_EQ(combined, IdentityMultiset(full_sink.outputs()));
}

TEST(CheckpointTest, GuardedEngineCheckpointsMidReorder) {
  // The checkpoint boundary may land while the IngressGuard's reorder
  // buffer is non-empty: the guard bytes must carry the buffered tuples so
  // the restored pipeline continues exactly where the original left off.
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(3),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  auto clean = UniformWorkload(3, 4, 400);
  // Shuffle in tumbling 16-tuple batches (the harness fault shape).
  std::vector<BaseTuple> corrupted;
  {
    Rng rng(7);
    std::vector<BaseTuple> batch;
    for (const BaseTuple& t : clean) {
      batch.push_back(t);
      if (batch.size() == 16) {
        for (size_t i = batch.size() - 1; i > 0; --i) {
          std::swap(batch[i], batch[rng.UniformU64(i + 1)]);
        }
        corrupted.insert(corrupted.end(), batch.begin(), batch.end());
        batch.clear();
      }
    }
  }
  IngressGuard::Options gopts;
  gopts.enabled = true;
  gopts.dedup_window = 64;
  gopts.reorder_window = 32;

  auto make_guarded = [&](CollectingSink* sink) {
    auto engine =
        std::make_unique<Engine>(plan, windows, sink, MakeJiscStrategy());
    auto guard = std::make_unique<IngressGuard>(gopts, 3);
    return std::make_unique<GuardedProcessor>(std::move(engine),
                                              std::move(guard));
  };

  // Uninterrupted guarded run over the corrupted feed.
  CollectingSink full_sink;
  auto full = make_guarded(&full_sink);
  for (const BaseTuple& t : corrupted) full->Push(t);
  full->FlushPending();

  // Run part of the feed, stopping mid-batch so tuples are pending.
  size_t split = 0;
  CollectingSink a_sink;
  auto a = make_guarded(&a_sink);
  for (size_t i = 0; i < corrupted.size(); ++i) {
    a->Push(corrupted[i]);
    if (i >= 200 && a->guard().pending() > 0) {
      split = i + 1;
      break;
    }
  }
  ASSERT_GT(split, 0u) << "feed never left the guard mid-reorder";
  ASSERT_GT(a->guard().pending(), 0u);

  auto bytes = CheckpointGuardedEngine(*a);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  CollectingSink b_sink;
  auto b = RestoreGuardedEngine(bytes.value(), &b_sink, MakeJiscStrategy());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b.value()->guard().pending(), a->guard().pending());
  EXPECT_EQ(b.value()->guard().next_expected(), a->guard().next_expected());

  for (size_t i = split; i < corrupted.size(); ++i) {
    b.value()->Push(corrupted[i]);
  }
  b.value()->FlushPending();

  auto combined = IdentityMultiset(a_sink.outputs());
  for (const Tuple& t : b_sink.outputs()) combined.insert(t.IdentityHash());
  EXPECT_EQ(combined, IdentityMultiset(full_sink.outputs()));
  // The guard admitted everything in order on both paths: the combined
  // stats match the uninterrupted run's.
  uint64_t restored_total = b.value()->guard().stats().reorder_restored;
  EXPECT_EQ(restored_total, full->guard().stats().reorder_restored);
  EXPECT_EQ(b.value()->guard().stats().late_admitted, 0u);
}

TEST(CheckpointTest, GuardedCheckpointRejectsCorruptBytes) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  IngressGuard::Options gopts;
  gopts.enabled = true;
  auto guarded = std::make_unique<GuardedProcessor>(
      std::make_unique<Engine>(plan, windows, &sink, MakeJiscStrategy()),
      std::make_unique<IngressGuard>(gopts, 2));
  for (const auto& t : UniformWorkload(2, 2, 50)) guarded->Push(t);
  auto bytes = CheckpointGuardedEngine(*guarded);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  CollectingSink s2;
  EXPECT_TRUE(
      RestoreGuardedEngine(bytes.value(), &s2, MakeJiscStrategy()).ok());
  EXPECT_FALSE(RestoreGuardedEngine("garbage", &s2, MakeJiscStrategy()).ok());
  std::string truncated = bytes.value().substr(0, bytes.value().size() / 2);
  EXPECT_FALSE(
      RestoreGuardedEngine(truncated, &s2, MakeJiscStrategy()).ok());
  std::string trailing = bytes.value() + "xx";
  EXPECT_FALSE(RestoreGuardedEngine(trailing, &s2, MakeJiscStrategy()).ok());
  std::string flipped = bytes.value();
  flipped[0] ^= 0x5a;  // guard magic
  EXPECT_FALSE(RestoreGuardedEngine(flipped, &s2, MakeJiscStrategy()).ok());
  // A plain engine checkpoint is not a guarded checkpoint.
  auto plain = CheckpointEngine(
      *static_cast<Engine*>(guarded->inner()));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(
      RestoreGuardedEngine(plain.value(), &s2, MakeJiscStrategy()).ok());
}

TEST(CheckpointTest, MovingStateEngineRestoresUnderJisc) {
  // Strategy is behaviour, not state: a checkpoint taken under Moving State
  // restores under JISC (and vice versa).
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 6);
  auto tuples = UniformWorkload(3, 3, 300);
  CollectingSink a_sink;
  Engine a(plan, windows, &a_sink, MakeMovingStateStrategy());
  for (size_t i = 0; i < 150; ++i) a.Push(tuples[i]);
  auto bytes = CheckpointEngine(a);
  ASSERT_TRUE(bytes.ok());
  CollectingSink b_sink;
  auto b = RestoreEngine(bytes.value(), &b_sink, MakeJiscStrategy());
  ASSERT_TRUE(b.ok());
  LogicalPlan next = LogicalPlan::LeftDeep({2, 0, 1}, OpKind::kHashJoin);
  ASSERT_TRUE(b.value()->RequestTransition(next).ok());
  for (size_t i = 150; i < tuples.size(); ++i) b.value()->Push(tuples[i]);
  // Sanity: output matches the reference over the whole run.
  NaiveJoinReference ref(3, windows);
  std::vector<Tuple> ref_out;
  for (const auto& t : tuples) ref.Push(t, &ref_out, nullptr);
  auto combined = IdentityMultiset(a_sink.outputs());
  for (const Tuple& t : b_sink.outputs()) combined.insert(t.IdentityHash());
  EXPECT_EQ(combined, IdentityMultiset(ref_out));
}

// --- fluid migration checkpoints (migration/fluid_scheduler.h) ---
//
// A checkpoint taken while a fluid drain is mid-flight serializes the
// in-flight migration bookkeeping (v2 format); the restored engine resumes
// the drain and must be indistinguishable from an uninterrupted twin.

ProcessorConfig SlowFluid() {
  ProcessorConfig config;
  config.fluid.mode = FluidOptions::Mode::kFluid;
  config.fluid.batch_keys = 1;  // one key per event: the drain spans events
  return config;
}

std::map<std::string, uint64_t> CounterMap(const Metrics& m) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : m.NamedCounters()) out[name] = value;
  return out;
}

// No-churn fluid workload (windows outlast the run, so nothing completes
// behind the drain's back and the maintain cadence — which restarts on
// restore — has no counters to move).
struct FluidFixture {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep(WorstCaseOrder(IdentityOrder(4)),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 50000);
  std::vector<BaseTuple> tuples = UniformWorkload(4, 64, 1300, 13);
  ProcessorConfig config = SlowFluid();

  const ProcessorConfig& opts() const { return config; }
  std::unique_ptr<MigrationStrategy> strategy() const {
    return EngineRecipeFor(ProcessorKind::kJisc, opts()).strategy_factory();
  }
};

TEST(FluidCheckpointTest, MidDrainRestoreReproducesUninterruptedCounters) {
  FluidFixture f;
  const size_t kSplit = 517;  // 512 warmup + 5 events into the drain

  // Uninterrupted twin.
  CollectingSink full_sink;
  Engine full(f.plan, f.windows, &full_sink, f.strategy(), f.opts());
  for (size_t i = 0; i < 512; ++i) full.Push(f.tuples[i]);
  ASSERT_TRUE(full.RequestTransition(f.next).ok());
  for (size_t i = 512; i < f.tuples.size(); ++i) full.Push(f.tuples[i]);
  auto full_counters = CounterMap(full.metrics());

  // Interrupted: checkpoint 5 events after the transition, mid-drain.
  CollectingSink a_sink;
  Engine a(f.plan, f.windows, &a_sink, f.strategy(), f.opts());
  for (size_t i = 0; i < 512; ++i) a.Push(f.tuples[i]);
  ASSERT_TRUE(a.RequestTransition(f.next).ok());
  for (size_t i = 512; i < kSplit; ++i) a.Push(f.tuples[i]);
  ASSERT_GT(a.strategy().FluidBacklog(), 0u) << "drain already finished";
  auto bytes = CheckpointEngine(a);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto a_counters = CounterMap(a.metrics());

  CollectingSink b_sink;
  auto b = RestoreEngine(bytes.value(), &b_sink, f.strategy(), f.opts());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(b.value()->strategy().FluidBacklog(), 0u);
  for (size_t i = kSplit; i < f.tuples.size(); ++i) {
    b.value()->Push(f.tuples[i]);
  }

  // Metrics restart from zero on restore, so the ledger claim is additive:
  // pre-checkpoint + post-restore == uninterrupted, counter for counter.
  auto b_counters = CounterMap(b.value()->metrics());
  ASSERT_EQ(full_counters.size(), a_counters.size());
  for (const auto& [name, value] : full_counters) {
    EXPECT_EQ(value, a_counters[name] + b_counters[name])
        << "counter '" << name << "' diverged across the restore";
  }
  auto combined = IdentityMultiset(a_sink.outputs());
  for (const Tuple& t : b_sink.outputs()) combined.insert(t.IdentityHash());
  EXPECT_EQ(combined, IdentityMultiset(full_sink.outputs()));

  // Both drains finished and the final states agree byte for byte.
  EXPECT_EQ(b.value()->strategy().FluidBacklog(), 0u);
  auto full_final = CheckpointEngine(full);
  auto b_final = CheckpointEngine(*b.value());
  ASSERT_TRUE(full_final.ok());
  ASSERT_TRUE(b_final.ok());
  EXPECT_EQ(full_final.value(), b_final.value());
}

TEST(FluidCheckpointTest, CorruptFluidBlobIsRejectedLoudly) {
  FluidFixture f;
  CollectingSink sink;
  Engine engine(f.plan, f.windows, &sink, f.strategy(), f.opts());
  for (size_t i = 0; i < 512; ++i) engine.Push(f.tuples[i]);
  ASSERT_TRUE(engine.RequestTransition(f.next).ok());
  for (size_t i = 512; i < 517; ++i) engine.Push(f.tuples[i]);
  ASSERT_GT(engine.strategy().FluidBacklog(), 0u);
  auto bytes = CheckpointEngine(engine);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  CollectingSink s2;
  // Sanity: the pristine blob restores.
  ASSERT_TRUE(
      RestoreEngine(bytes.value(), &s2, f.strategy(), f.opts()).ok());

  // Truncating or extending the strategy blob fails.
  std::string truncated = bytes.value().substr(0, bytes.value().size() - 3);
  EXPECT_FALSE(RestoreEngine(truncated, &s2, f.strategy(), f.opts()).ok());
  std::string trailing = bytes.value() + "xx";
  EXPECT_FALSE(RestoreEngine(trailing, &s2, f.strategy(), f.opts()).ok());

  // Flipping the fluid blob's magic fails with InvalidArgument. The blob is
  // embedded verbatim in the checkpoint; locate it by its leading bytes.
  std::string blob = engine.strategy().SerializeMigrationState();
  ASSERT_GE(blob.size(), 8u);
  size_t pos = bytes.value().find(blob.substr(0, 8));
  ASSERT_NE(pos, std::string::npos);
  std::string flipped = bytes.value();
  flipped[pos] ^= 0x5a;
  auto r = RestoreEngine(flipped, &s2, f.strategy(), f.opts());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // A mid-migration checkpoint restored under a strategy that cannot carry
  // migration state (plain all-at-once JISC) is refused, not half-restored.
  EXPECT_FALSE(RestoreEngine(bytes.value(), &s2, MakeJiscStrategy()).ok());
}

TEST(FluidCheckpointTest, QuiescedFluidEngineStillWritesV1Bytes) {
  // Once the drain has finished, a fluid engine's checkpoint is the plain
  // v1 format: byte-identical to an all-at-once engine's at the same state,
  // and restorable under any strategy.
  FluidFixture f;
  CollectingSink fluid_sink;
  Engine fluid_engine(f.plan, f.windows, &fluid_sink, f.strategy(),
                      f.opts());
  CollectingSink plain_sink;
  Engine plain_engine(f.plan, f.windows, &plain_sink, MakeJiscStrategy());
  for (size_t i = 0; i < f.tuples.size(); ++i) {
    fluid_engine.Push(f.tuples[i]);
    plain_engine.Push(f.tuples[i]);
  }
  auto fluid_bytes = CheckpointEngine(fluid_engine);
  auto plain_bytes = CheckpointEngine(plain_engine);
  ASSERT_TRUE(fluid_bytes.ok());
  ASSERT_TRUE(plain_bytes.ok());
  EXPECT_EQ(fluid_bytes.value(), plain_bytes.value());
  CollectingSink s2;
  EXPECT_TRUE(
      RestoreEngine(fluid_bytes.value(), &s2, MakeJiscStrategy()).ok());
}

}  // namespace
}  // namespace jisc
