// Fluid migration: latency-bounded state carryover drained in budgeted
// per-key batches between tuples (migration/fluid_scheduler.h).
//
// The heart of this suite is the equivalence oracle: on a no-churn
// workload whose post-transition probes cover the whole key domain, a
// fluid run must reproduce its all-at-once twin EXACTLY — every
// deterministic counter, every output, and (for the engine strategies)
// the final checkpoint byte-for-byte. The oracle holds for every strategy
// with a migration stage; batch sizing only reorders when carryover work
// happens, never what it does.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "migration/fluid_scheduler.h"
#include "migration/hybrid_track.h"
#include "plan/transitions.h"
#include "stream/synthetic_source.h"
#include "tests/test_util.h"
#include "workload/factory.h"

namespace jisc {
namespace {

using testutil::IdentityOrder;

FluidOptions Fluid(uint64_t batch_keys, uint64_t delay_budget_us = 50) {
  FluidOptions f;
  f.mode = FluidOptions::Mode::kFluid;
  f.batch_keys = batch_keys;
  f.delay_budget_us = delay_budget_us;
  return f;
}

// The oracle workload: 4 streams, windows far larger than the run (no
// churn), sequential keys over a 64-value domain. After warmup the join
// order is reversed (the paper's worst case — every non-scan state of the
// new plan starts incomplete), then a single-stream burst probes every
// value in the domain, so the on-probe completions of an all-at-once lazy
// run cover exactly the key sets a fluid drain completes proactively. The
// tail runs past the maintain cadence so completion detection settles
// before the final snapshot.
struct OracleRun {
  std::vector<std::pair<std::string, uint64_t>> counters;
  uint64_t outputs = 0;
  uint64_t retractions = 0;
  std::string checkpoint;  // engine kinds only
  BuiltProcessor built;    // kept alive for introspection
};

constexpr int kStreams = 4;
constexpr uint64_t kDomain = 64;
constexpr int kWarmup = 512;
constexpr int kBurst = 256;  // kStreams * kDomain: covers the domain
constexpr int kTail = 600;   // > default maintain_period (256)

OracleRun RunOracle(ProcessorKind kind, FluidOptions fluid) {
  WindowSpec windows = WindowSpec::Uniform(kStreams, 50000);
  LogicalPlan initial =
      LogicalPlan::LeftDeep(IdentityOrder(kStreams), OpKind::kHashJoin);
  OracleRun run;
  ProcessorConfig config;
  config.fluid = fluid;
  run.built = MakeProcessor(kind, initial, windows, config);

  SourceConfig cfg;
  cfg.num_streams = kStreams;
  cfg.key_domain = kDomain;
  cfg.key_pattern = KeyPattern::kSequential;
  cfg.seed = 11;
  SyntheticSource src(cfg);

  for (int i = 0; i < kWarmup; ++i) run.built.processor->Push(src.Next());
  Status s = run.built.processor->RequestTransition(LogicalPlan::LeftDeep(
      WorstCaseOrder(IdentityOrder(kStreams)), OpKind::kHashJoin));
  EXPECT_TRUE(s.ok()) << s.message();
  src.ForceStream(0);
  for (int i = 0; i < kBurst; ++i) run.built.processor->Push(src.Next());
  src.ForceStream(std::nullopt);
  for (int i = 0; i < kTail; ++i) run.built.processor->Push(src.Next());

  run.counters = run.built.processor->metrics().NamedCounters();
  run.outputs = run.built.sink->outputs();
  run.retractions = run.built.sink->retractions();
  if (auto* engine = dynamic_cast<Engine*>(run.built.processor.get())) {
    StatusOr<std::string> bytes = CheckpointEngine(*engine);
    EXPECT_TRUE(bytes.ok()) << bytes.status().message();
    if (bytes.ok()) run.checkpoint = bytes.value();
  }
  return run;
}

void ExpectSameCounters(
    const std::vector<std::pair<std::string, uint64_t>>& all_at_once,
    const std::vector<std::pair<std::string, uint64_t>>& fluid) {
  ASSERT_EQ(all_at_once.size(), fluid.size());
  for (size_t i = 0; i < all_at_once.size(); ++i) {
    EXPECT_EQ(all_at_once[i].first, fluid[i].first);
    EXPECT_EQ(all_at_once[i].second, fluid[i].second)
        << "counter '" << all_at_once[i].first << "' diverged";
  }
}

void ExpectOracleEquivalence(ProcessorKind kind, FluidOptions fluid) {
  OracleRun all_at_once = RunOracle(kind, FluidOptions());
  OracleRun fluid_run = RunOracle(kind, fluid);
  ExpectSameCounters(all_at_once.counters, fluid_run.counters);
  EXPECT_EQ(all_at_once.outputs, fluid_run.outputs);
  EXPECT_EQ(all_at_once.retractions, fluid_run.retractions);
  // Final state byte-for-byte: the canonical checkpoint serialization of
  // the drained fluid run is indistinguishable from all-at-once's.
  EXPECT_EQ(all_at_once.checkpoint, fluid_run.checkpoint)
      << "final checkpoint bytes diverged for "
      << ProcessorKindName(kind);
}

// --- the oracle, per strategy ---

TEST(FluidOracle, JiscFluidMatchesAllAtOnce) {
  ExpectOracleEquivalence(ProcessorKind::kJisc, Fluid(7));
}

TEST(FluidOracle, JiscFirstReceiptFluidMatchesAllAtOnce) {
  ExpectOracleEquivalence(ProcessorKind::kJiscFirstReceipt, Fluid(7));
}

TEST(FluidOracle, MovingStateFluidMatchesAllAtOnce) {
  ExpectOracleEquivalence(ProcessorKind::kMovingState, Fluid(7));
}

TEST(FluidOracle, HybridTrackFluidMatchesAllAtOnce) {
  // Hybrid Track is not checkpointable (multi-plan); the oracle covers
  // counters and outputs, and the drained-backlog check below covers the
  // state itself.
  OracleRun all_at_once = RunOracle(ProcessorKind::kHybridTrack,
                                    FluidOptions());
  OracleRun fluid_run = RunOracle(ProcessorKind::kHybridTrack, Fluid(7));
  ExpectSameCounters(all_at_once.counters, fluid_run.counters);
  EXPECT_EQ(all_at_once.outputs, fluid_run.outputs);
  EXPECT_EQ(all_at_once.retractions, fluid_run.retractions);
  auto* hybrid =
      dynamic_cast<HybridTrackProcessor*>(fluid_run.built.processor.get());
  ASSERT_NE(hybrid, nullptr);
  EXPECT_EQ(hybrid->FluidCopyBacklog(), 0u) << "copy-in never drained";
  EXPECT_GT(hybrid->fluid_scheduler().stats().batches, 0u);
}

TEST(FluidOracle, ParallelTrackAcceptsFluidAsDegenerate) {
  // Parallel Track has no carryover; fluid configuration is documented as
  // a no-op, so the runs are trivially identical.
  OracleRun all_at_once = RunOracle(ProcessorKind::kParallelTrack,
                                    FluidOptions());
  OracleRun fluid_run = RunOracle(ProcessorKind::kParallelTrack, Fluid(7));
  ExpectSameCounters(all_at_once.counters, fluid_run.counters);
  EXPECT_EQ(all_at_once.outputs, fluid_run.outputs);
}

// --- batch_keys sweep, including the degenerate unbounded setting ---

TEST(FluidOracle, BatchKeysSweepAllEquivalent) {
  OracleRun all_at_once = RunOracle(ProcessorKind::kJisc, FluidOptions());
  for (uint64_t batch_keys : {uint64_t{1}, uint64_t{7}, uint64_t{64}}) {
    OracleRun fluid_run = RunOracle(ProcessorKind::kJisc, Fluid(batch_keys));
    ExpectSameCounters(all_at_once.counters, fluid_run.counters);
    EXPECT_EQ(all_at_once.checkpoint, fluid_run.checkpoint)
        << "batch_keys=" << batch_keys;
  }
}

TEST(FluidOracle, UnboundedBatchKeysDegeneratesToAllAtOnce) {
  // batch_keys 0 ("infinity") is IsFluid() == false: no scheduler, no
  // engine hook — the literal all-at-once code path, not a large batch.
  FluidOptions unbounded = Fluid(0);
  EXPECT_FALSE(unbounded.IsFluid());
  OracleRun all_at_once = RunOracle(ProcessorKind::kJisc, FluidOptions());
  OracleRun degenerate = RunOracle(ProcessorKind::kJisc, unbounded);
  ExpectSameCounters(all_at_once.counters, degenerate.counters);
  EXPECT_EQ(all_at_once.checkpoint, degenerate.checkpoint);
  auto* engine = dynamic_cast<Engine*>(degenerate.built.processor.get());
  ASSERT_NE(engine, nullptr);
  // The factory installed the plain strategy, not the fluid decorator.
  EXPECT_EQ(dynamic_cast<FluidJiscStrategy*>(&engine->strategy()), nullptr);
}

// --- budget enforcement ---

const FluidScheduler* SchedulerOf(StreamProcessor* p) {
  auto* engine = dynamic_cast<Engine*>(p);
  if (engine == nullptr) return nullptr;
  auto* fluid = dynamic_cast<FluidJiscStrategy*>(&engine->strategy());
  return fluid == nullptr ? nullptr : &fluid->scheduler();
}

TEST(FluidBudget, BatchKeysCapIsEnforced) {
  for (uint64_t batch_keys : {uint64_t{1}, uint64_t{7}}) {
    OracleRun run = RunOracle(ProcessorKind::kJisc,
                              Fluid(batch_keys, /*delay_budget_us=*/1000));
    const FluidScheduler* sched = SchedulerOf(run.built.processor.get());
    ASSERT_NE(sched, nullptr);
    const FluidScheduler::Stats& stats = sched->stats();
    EXPECT_GT(stats.batches, 0u);
    EXPECT_GT(stats.items, 0u);
    EXPECT_LE(stats.max_batch_items, batch_keys);
    EXPECT_EQ(stats.overruns, 0u);
  }
}

TEST(FluidBudget, SmallBudgetYieldsBetweenBatches) {
  // One item per batch (budget spent immediately) with a deep backlog:
  // the scheduler must yield with work remaining, not run to exhaustion.
  OracleRun run = RunOracle(ProcessorKind::kJisc,
                            Fluid(/*batch_keys=*/64, /*delay_budget_us=*/0));
  const FluidScheduler* sched = SchedulerOf(run.built.processor.get());
  ASSERT_NE(sched, nullptr);
  const FluidScheduler::Stats& stats = sched->stats();
  EXPECT_GT(stats.yields, 0u);
  EXPECT_EQ(stats.overruns, 0u);
  // Budget floor: even a zero-microsecond budget completes one item.
  EXPECT_GE(stats.items, stats.batches);
}

TEST(FluidBudget, BacklogFullyDrainsByEndOfRun) {
  OracleRun run = RunOracle(ProcessorKind::kJisc, Fluid(1));
  auto* engine = dynamic_cast<Engine*>(run.built.processor.get());
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->strategy().FluidBacklog(), 0u);
}

// --- soundness under churn (windows turn over mid-drain) ---

TEST(FluidChurn, JiscFluidMatchesReferenceUnderChurn) {
  const int n = 3;
  WindowSpec windows = WindowSpec::Uniform(n, 60);
  LogicalPlan initial =
      LogicalPlan::LeftDeep(IdentityOrder(n), OpKind::kHashJoin);
  CollectingSink sink;
  ProcessorConfig opts;
  opts.fluid = Fluid(3, 0);  // one key per batch: drain spans many events
  EngineRecipe jisc = EngineRecipeFor(ProcessorKind::kJisc, opts);
  Engine engine(initial, windows, &sink, jisc.strategy_factory(), opts);
  std::vector<BaseTuple> tuples = testutil::UniformWorkload(n, 8, 600);
  std::map<size_t, LogicalPlan> transitions;
  transitions.emplace(200, LogicalPlan::LeftDeep(
                               WorstCaseOrder(IdentityOrder(n)),
                               OpKind::kHashJoin));
  testutil::DriveResult r = testutil::DriveAndCompare(
      &engine, &sink, n, windows, tuples, transitions);
  EXPECT_TRUE(r.outputs_match) << r.outputs << " vs " << r.reference_outputs;
  EXPECT_TRUE(r.retractions_match);
}

TEST(FluidChurn, HybridFluidMatchesReferenceUnderChurn) {
  const int n = 3;
  WindowSpec windows = WindowSpec::Uniform(n, 60);
  LogicalPlan initial =
      LogicalPlan::LeftDeep(IdentityOrder(n), OpKind::kHashJoin);
  auto sink = std::make_unique<CollectingSink>();
  ProcessorConfig hopts;
  hopts.fluid = Fluid(2, 0);
  HybridTrackProcessor hybrid(initial, windows, sink.get(), hopts);
  std::vector<BaseTuple> tuples = testutil::UniformWorkload(n, 8, 600);
  std::map<size_t, LogicalPlan> transitions;
  transitions.emplace(200, LogicalPlan::LeftDeep(
                               WorstCaseOrder(IdentityOrder(n)),
                               OpKind::kHashJoin));
  transitions.emplace(420, LogicalPlan::LeftDeep(IdentityOrder(n),
                                                 OpKind::kHashJoin));
  testutil::DriveResult r = testutil::DriveAndCompare(
      &hybrid, sink.get(), n, windows, tuples, transitions);
  EXPECT_TRUE(r.outputs_match) << r.outputs << " vs " << r.reference_outputs;
  EXPECT_TRUE(r.retractions_match);
}

// --- mid-drain checkpointability (details in checkpoint_test.cc) ---

TEST(FluidCheckpoint, MidDrainCheckpointResumesAndConverges) {
  // Checkpoint while the drain is mid-flight (batch_keys = 1 keeps the
  // backlog alive for ~60 events), restore, finish the identical feed, and
  // compare the final checkpoint bytes against an uninterrupted twin. The
  // counter-level ledger is covered in checkpoint_test.cc; here the claim
  // is the state one: the resumed drain converges to the same bytes.
  WindowSpec windows = WindowSpec::Uniform(kStreams, 50000);
  LogicalPlan initial =
      LogicalPlan::LeftDeep(IdentityOrder(kStreams), OpKind::kHashJoin);
  LogicalPlan target = LogicalPlan::LeftDeep(
      WorstCaseOrder(IdentityOrder(kStreams)), OpKind::kHashJoin);
  SourceConfig cfg;
  cfg.num_streams = kStreams;
  cfg.key_domain = kDomain;
  cfg.key_pattern = KeyPattern::kSequential;
  cfg.seed = 11;
  ProcessorConfig opts;
  opts.fluid = Fluid(1);
  StrategyFactory jisc =
      EngineRecipeFor(ProcessorKind::kJisc, opts).strategy_factory;

  // Uninterrupted twin.
  CountingSink sink_a;
  Engine uninterrupted(initial, windows, &sink_a, jisc(), opts);
  SyntheticSource src_a(cfg);
  for (int i = 0; i < kWarmup; ++i) uninterrupted.Push(src_a.Next());
  ASSERT_TRUE(uninterrupted.RequestTransition(target).ok());
  for (int i = 0; i < 5 + kTail; ++i) uninterrupted.Push(src_a.Next());
  StatusOr<std::string> final_a = CheckpointEngine(uninterrupted);
  ASSERT_TRUE(final_a.ok()) << final_a.status().message();

  // Interrupted run: checkpoint 5 events after the transition.
  CountingSink sink_b;
  Engine interrupted(initial, windows, &sink_b, jisc(), opts);
  SyntheticSource src_b(cfg);
  for (int i = 0; i < kWarmup; ++i) interrupted.Push(src_b.Next());
  ASSERT_TRUE(interrupted.RequestTransition(target).ok());
  for (int i = 0; i < 5; ++i) interrupted.Push(src_b.Next());
  ASSERT_GT(interrupted.strategy().FluidBacklog(), 0u)
      << "drain finished too fast to checkpoint mid-flight";
  StatusOr<std::string> mid = CheckpointEngine(interrupted);
  ASSERT_TRUE(mid.ok()) << mid.status().message();

  CountingSink sink_c;
  StatusOr<std::unique_ptr<Engine>> restored =
      RestoreEngine(mid.value(), &sink_c, jisc(), opts);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_GT(restored.value()->strategy().FluidBacklog(), 0u)
      << "restored engine lost the in-flight drain ledger";
  for (int i = 0; i < kTail; ++i) restored.value()->Push(src_b.Next());
  StatusOr<std::string> final_c = CheckpointEngine(*restored.value());
  ASSERT_TRUE(final_c.ok()) << final_c.status().message();
  EXPECT_EQ(final_a.value(), final_c.value())
      << "resumed drain did not converge to the uninterrupted run's state";
  EXPECT_EQ(sink_a.outputs(), sink_b.outputs() + sink_c.outputs());
}

}  // namespace
}  // namespace jisc
