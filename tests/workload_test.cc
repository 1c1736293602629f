#include <gtest/gtest.h>

#include "common/env.h"
#include "plan/transitions.h"
#include "stream/synthetic_source.h"
#include "tests/test_util.h"
#include "workload/factory.h"
#include "workload/runner.h"

namespace jisc {
namespace {

using testutil::IdentityOrder;

TEST(SyntheticSourceTest, RoundRobinInterleaveAndSeq) {
  SourceConfig cfg;
  cfg.num_streams = 3;
  cfg.key_domain = 10;
  SyntheticSource src(cfg);
  for (Seq i = 0; i < 30; ++i) {
    BaseTuple t = src.Next();
    EXPECT_EQ(t.stream, i % 3);
    EXPECT_EQ(t.seq, i);
    EXPECT_GE(t.key, 0);
    EXPECT_LT(t.key, 10);
  }
  EXPECT_EQ(src.tuples_emitted(), 30u);
}

TEST(SyntheticSourceTest, DeterministicPerSeed) {
  SourceConfig cfg;
  cfg.num_streams = 2;
  cfg.key_domain = 100;
  cfg.seed = 5;
  SyntheticSource a(cfg);
  SyntheticSource b(cfg);
  for (int i = 0; i < 100; ++i) {
    BaseTuple x = a.Next();
    BaseTuple y = b.Next();
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.stream, y.stream);
  }
}

TEST(SyntheticSourceTest, DomainShiftTakesEffect) {
  SourceConfig cfg;
  cfg.num_streams = 1;
  cfg.key_domain = 1;  // all keys 0
  SyntheticSource src(cfg);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(src.Next().key, 0);
  src.SetKeyDomain(1000);
  bool saw_nonzero = false;
  for (int i = 0; i < 50; ++i) saw_nonzero |= (src.Next().key != 0);
  EXPECT_TRUE(saw_nonzero);
}

TEST(SyntheticSourceTest, ForcedStream) {
  SourceConfig cfg;
  cfg.num_streams = 4;
  SyntheticSource src(cfg);
  src.ForceStream(StreamId{2});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(src.Next().stream, 2);
  src.ForceStream(std::nullopt);
  EXPECT_NE(src.Next().stream, src.Next().stream);
}

TEST(FactoryTest, AllKindsConstructAndRun) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(3),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  for (ProcessorKind kind :
       {ProcessorKind::kJisc, ProcessorKind::kJiscFirstReceipt,
        ProcessorKind::kMovingState, ProcessorKind::kParallelTrack,
        ProcessorKind::kHybridTrack, ProcessorKind::kCacq,
        ProcessorKind::kMJoin, ProcessorKind::kStairsEager,
        ProcessorKind::kStairsJisc, ProcessorKind::kStaticPipeline}) {
    BuiltProcessor built = MakeProcessor(kind, plan, windows);
    ASSERT_NE(built.processor, nullptr) << ProcessorKindName(kind);
    SourceConfig cfg;
    cfg.num_streams = 3;
    cfg.key_domain = 8;
    SyntheticSource src(cfg);
    ConsumeStats stats = Consume(built.processor.get(), &src, 100);
    EXPECT_EQ(stats.tuples, 100u);
    EXPECT_GT(stats.work_units, 0u) << ProcessorKindName(kind);
    EXPECT_EQ(built.processor->metrics().arrivals, 100u)
        << ProcessorKindName(kind);
  }
}

TEST(FactoryTest, NamesAreStable) {
  EXPECT_STREQ(ProcessorKindName(ProcessorKind::kJisc), "jisc");
  EXPECT_STREQ(ProcessorKindName(ProcessorKind::kCacq), "cacq");
  EXPECT_STREQ(ProcessorKindName(ProcessorKind::kParallelTrack),
               "parallel-track");
  EXPECT_EQ(PipelineStrategyKinds().size(), 4u);
}

TEST(RunnerTest, LatencyProbeJiscVsMovingState) {
  auto order = IdentityOrder(4);
  LogicalPlan plan = LogicalPlan::LeftDeep(order, OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep(WorstCaseOrder(order),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 64);
  SourceConfig cfg;
  cfg.num_streams = 4;
  cfg.key_domain = 32;

  auto measure = [&](ProcessorKind kind) {
    BuiltProcessor built = MakeProcessor(kind, plan, windows);
    SyntheticSource src(cfg);
    WarmUp(built.processor.get(), &src, 4, 64);
    return MeasureTransitionLatency(built.processor.get(), built.sink.get(),
                                    next, &src, 4000);
  };
  LatencyResult jisc = measure(ProcessorKind::kJisc);
  LatencyResult ms = measure(ProcessorKind::kMovingState);
  // Both produce output soon after the transition; Moving State pays the
  // eager recomputation inside the migration phase. Compared in work units,
  // not in the wall-clock seconds of two separate runs.
  EXPECT_GT(jisc.tuples_until_output, 0u);
  EXPECT_GT(ms.migration_work_units, 0u);
  EXPECT_LE(jisc.migration_work_units, ms.migration_work_units);
  EXPECT_GT(ms.migration_seconds, 0.0);
}

TEST(RunnerTest, ConsumeRecordedRanges) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(2),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  BuiltProcessor built = MakeProcessor(ProcessorKind::kJisc, plan, windows);
  auto tuples = testutil::UniformWorkload(2, 4, 50);
  ConsumeStats s1 = ConsumeRecorded(built.processor.get(), tuples, 0, 25);
  ConsumeStats s2 = ConsumeRecorded(built.processor.get(), tuples, 25, 50);
  EXPECT_EQ(s1.tuples + s2.tuples, 50u);
  EXPECT_EQ(built.processor->metrics().arrivals, 50u);
}

TEST(BenchScaleTest, DefaultsBelowPaperScale) {
  EXPECT_GT(BenchScale(), 0.0);
  EXPECT_LE(BenchScale(), 10.0);
}

}  // namespace
}  // namespace jisc
