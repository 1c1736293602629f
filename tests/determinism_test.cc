// Determinism: identical runs produce bit-identical work counters and
// output streams, across every processor — the property all benchmark
// work-unit comparisons rest on. Also covers the Sum/TopK sinks.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "obs/observability.h"
#include "obs/telemetry.h"
#include "plan/transitions.h"
#include "reference/naive_reference.h"
#include "tests/test_util.h"
#include "workload/factory.h"

namespace jisc {
namespace {

using testutil::IdentityOrder;
using testutil::UniformWorkload;

uint64_t OutputsHash(const std::vector<Tuple>& outputs) {
  auto ids = testutil::IdentityMultiset(outputs);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t x : ids) h = HashCombine(h, x);
  return h;
}

struct RunSignature {
  uint64_t output_hash;
  uint64_t work;
  uint64_t outputs;
};

// `obs` attaches the observability bundle (tracing + histograms); the
// tracing-on/off battery below requires it to change nothing observable.
// `fluid` paces the migration in batches of three keys.
RunSignature RunOnce(ProcessorKind kind, Observability* obs = nullptr,
                     bool fluid = false) {
  auto order = IdentityOrder(4);
  LogicalPlan plan = LogicalPlan::LeftDeep(order, OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep(WorstCaseOrder(order),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  ProcessorConfig config;
  config.obs = obs;
  if (fluid) {
    config.fluid.mode = FluidOptions::Mode::kFluid;
    config.fluid.batch_keys = 3;
  }
  BuiltProcessor built = MakeProcessor(kind, plan, windows, config);
  auto tuples = UniformWorkload(4, 4, 500, /*seed=*/33);
  std::vector<Tuple> outputs;
  built.sink->SetCallback(
      [&](const Tuple& t, Stamp) { outputs.push_back(t); });
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 250) {
      EXPECT_TRUE(built.processor->RequestTransition(next).ok());
    }
    built.processor->Push(tuples[i]);
  }
  return RunSignature{OutputsHash(outputs),
                      built.processor->metrics().WorkUnits(),
                      built.processor->metrics().outputs};
}

class DeterminismTest : public ::testing::TestWithParam<ProcessorKind> {};

TEST_P(DeterminismTest, RepeatRunsAreBitIdentical) {
  RunSignature a = RunOnce(GetParam());
  RunSignature b = RunOnce(GetParam());
  EXPECT_EQ(a.output_hash, b.output_hash);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.outputs, b.outputs);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DeterminismTest,
    ::testing::Values(ProcessorKind::kJisc, ProcessorKind::kJiscFirstReceipt,
                      ProcessorKind::kMovingState,
                      ProcessorKind::kParallelTrack,
                      ProcessorKind::kHybridTrack, ProcessorKind::kCacq,
                      ProcessorKind::kMJoin, ProcessorKind::kStairsEager,
                      ProcessorKind::kStairsJisc),
    [](const ::testing::TestParamInfo<ProcessorKind>& info) {
      std::string name = ProcessorKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Attaching the observability bundle must not perturb execution: identical
// sink output and work counters with tracing on vs off. This is the
// guarantee that makes traces trustworthy — measuring doesn't change what
// is measured. Also checks the run actually produced telemetry where the
// processor supports it, so a silently-dropped wiring can't pass.
TEST_P(DeterminismTest, TracingOnOffIsByteIdentical) {
  RunSignature off = RunOnce(GetParam());
  Observability obs;
  obs.options.record_service_times = true;
  RunSignature on = RunOnce(GetParam(), &obs);
  EXPECT_EQ(on.output_hash, off.output_hash);
  EXPECT_EQ(on.work, off.work);
  EXPECT_EQ(on.outputs, off.outputs);
  // The engine-backed processors wire the bundle through; the eddy family
  // ignores it (documented in MakeProcessor), so only assert coverage for
  // kinds that claim it.
  switch (GetParam()) {
    case ProcessorKind::kJisc:
    case ProcessorKind::kJiscFirstReceipt:
    case ProcessorKind::kMovingState:
    case ProcessorKind::kParallelTrack:
    case ProcessorKind::kHybridTrack:
      EXPECT_GT(obs.output_delay_ns.count(), 0u);
      EXPECT_GT(obs.probe_ns.count(), 0u);
      EXPECT_FALSE(obs.trace.Snapshot().empty());
      break;
    default:
      break;
  }
}

// Same guarantee for the live telemetry plane: hot-path gauges (input,
// progress, state memory) change nothing observable, and the registry
// actually saw the run on the processors that wire it through.
TEST_P(DeterminismTest, TelemetryGaugesOnOffIsByteIdentical) {
  RunSignature off = RunOnce(GetParam());
  Observability::Options oopts;
  oopts.telemetry = true;
  Observability obs(oopts);
  RunSignature on = RunOnce(GetParam(), &obs);
  EXPECT_EQ(on.output_hash, off.output_hash);
  EXPECT_EQ(on.work, off.work);
  EXPECT_EQ(on.outputs, off.outputs);
  // Gauge coverage holds for the Engine-backed processors; ParallelTrack
  // and HybridTrack run their own dual-track pipelines outside the Engine
  // (they record traces/histograms but no engine gauges), and the eddy
  // family ignores obs entirely.
  switch (GetParam()) {
    case ProcessorKind::kJisc:
    case ProcessorKind::kJiscFirstReceipt:
    case ProcessorKind::kMovingState: {
      ASSERT_NE(obs.telemetry, nullptr);
      EXPECT_GT(obs.telemetry->input_events(), 0u);
      TelemetryTrackSample s = obs.telemetry->SampleTrack(0);
      EXPECT_GT(s.progress_events, 0u);
      EXPECT_GT(s.state_memory_bytes, 0u);
      break;
    }
    default:
      break;
  }
}

// --- fluid migration battery (migration/fluid_scheduler.h) ---
//
// The same three guarantees with fluid pacing on: batched carryover is
// budgeted in deterministic work units (never wall clock), so repeat runs
// are bit-identical, and the fluid observability surface (fluid-batch /
// fluid-yield trace spans, the migration-backlog gauge) must not perturb
// what it observes.

RunSignature RunOnceFluid(ProcessorKind kind, Observability* obs = nullptr) {
  return RunOnce(kind, obs, /*fluid=*/true);
}

class FluidDeterminismTest : public ::testing::TestWithParam<ProcessorKind> {
};

TEST_P(FluidDeterminismTest, RepeatRunsAreBitIdentical) {
  RunSignature a = RunOnceFluid(GetParam());
  RunSignature b = RunOnceFluid(GetParam());
  EXPECT_EQ(a.output_hash, b.output_hash);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST_P(FluidDeterminismTest, TracingOnOffIsByteIdentical) {
  RunSignature off = RunOnceFluid(GetParam());
  Observability obs;
  obs.options.record_service_times = true;
  RunSignature on = RunOnceFluid(GetParam(), &obs);
  EXPECT_EQ(on.output_hash, off.output_hash);
  EXPECT_EQ(on.work, off.work);
  EXPECT_EQ(on.outputs, off.outputs);
}

TEST_P(FluidDeterminismTest, TelemetryGaugesOnOffIsByteIdentical) {
  RunSignature off = RunOnceFluid(GetParam());
  Observability::Options oopts;
  oopts.telemetry = true;
  Observability obs(oopts);
  RunSignature on = RunOnceFluid(GetParam(), &obs);
  EXPECT_EQ(on.output_hash, off.output_hash);
  EXPECT_EQ(on.work, off.work);
  EXPECT_EQ(on.outputs, off.outputs);
  // The drain finished, so the backlog gauge must have returned to zero on
  // the processors that publish it.
  if (obs.telemetry != nullptr && GetParam() != ProcessorKind::kParallelTrack) {
    EXPECT_EQ(obs.telemetry->SampleTrack(0).migration_backlog, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FluidKinds, FluidDeterminismTest,
    ::testing::Values(ProcessorKind::kJisc, ProcessorKind::kJiscFirstReceipt,
                      ProcessorKind::kMovingState,
                      ProcessorKind::kParallelTrack,
                      ProcessorKind::kHybridTrack),
    [](const ::testing::TestParamInfo<ProcessorKind>& info) {
      std::string name = ProcessorKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// All strategies agree with each other on the output multiset (pairwise
// cross-check on top of the reference-based equivalence suite).
TEST(DeterminismTest, AllStrategiesAgree) {
  uint64_t expected = RunOnce(ProcessorKind::kJisc).output_hash;
  for (ProcessorKind kind :
       {ProcessorKind::kMovingState, ProcessorKind::kParallelTrack,
        ProcessorKind::kHybridTrack, ProcessorKind::kCacq,
        ProcessorKind::kMJoin, ProcessorKind::kStairsEager,
        ProcessorKind::kStairsJisc}) {
    EXPECT_EQ(RunOnce(kind).output_hash, expected)
        << ProcessorKindName(kind);
  }
}

TEST(AggSinkTest, SumTracksReference) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 6);
  SumAggregateSink sum;
  Engine engine(plan, windows, &sum, MakeJiscStrategy());
  NaiveJoinReference ref(2, windows);
  auto tuples = UniformWorkload(2, 3, 200);
  for (const auto& t : tuples) {
    engine.Push(t);
    ref.Push(t, nullptr, nullptr);
  }
  int64_t expect = 0;
  for (const Tuple& t : ref.CurrentResult()) {
    for (const BaseTuple& p : t.parts()) expect += p.payload;
  }
  EXPECT_EQ(sum.sum(), expect);
}

TEST(AggSinkTest, TopKeysAcrossTransition) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep({2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 9);
  TopKeysSink topk;
  Engine engine(plan, windows, &topk, MakeJiscStrategy());
  NaiveJoinReference ref(3, windows);
  auto tuples = UniformWorkload(3, 3, 300);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 150) ASSERT_TRUE(engine.RequestTransition(next).ok());
    engine.Push(tuples[i]);
    ref.Push(tuples[i], nullptr, nullptr);
  }
  std::map<JoinKey, int64_t> expect;
  for (const Tuple& t : ref.CurrentResult()) expect[t.key()] += 1;
  EXPECT_EQ(topk.distinct_keys(), expect.size());
  auto top = topk.TopK(2);
  for (const auto& [key, count] : top) {
    EXPECT_EQ(expect.at(key), count);
  }
}

}  // namespace
}  // namespace jisc
