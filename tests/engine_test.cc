// Engine lifecycle, Parallel Track lifecycle, Moving State internals, and
// miscellaneous plumbing not covered by the scenario suites.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "migration/moving_state.h"
#include "migration/hybrid_track.h"
#include "migration/parallel_track.h"
#include "plan/transitions.h"
#include "tests/test_util.h"

namespace jisc {
namespace {

using testutil::IdentityMultiset;
using testutil::IdentityOrder;
using testutil::UniformWorkload;

TEST(EngineTest, TransitionCounterAndPlanAccessors) {
  LogicalPlan a = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  LogicalPlan b = LogicalPlan::LeftDeep({2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  CountingSink sink;
  Engine engine(a, windows, &sink, MakeJiscStrategy());
  EXPECT_EQ(engine.transitions(), 0u);
  EXPECT_TRUE(engine.plan() == a);
  ASSERT_TRUE(engine.RequestTransition(b).ok());
  EXPECT_EQ(engine.transitions(), 1u);
  EXPECT_TRUE(engine.plan() == b);
}

TEST(EngineTest, BufferedCountAndDrain) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CountingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  auto tuples = UniformWorkload(2, 2, 10);
  for (const auto& t : tuples) engine.PushNoDrain(t);
  EXPECT_EQ(engine.buffered(), 10u);
  EXPECT_EQ(engine.metrics().arrivals, 0u);  // nothing admitted yet
  engine.Drain();
  EXPECT_EQ(engine.buffered(), 0u);
  EXPECT_EQ(engine.metrics().arrivals, 10u);
}

TEST(EngineTest, PushFlushesPendingBuffer) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  auto tuples = UniformWorkload(2, 2, 20);
  engine.PushNoDrain(tuples[0]);
  engine.PushNoDrain(tuples[1]);
  engine.Push(tuples[2]);  // must drain the buffer first, in order
  EXPECT_EQ(engine.buffered(), 0u);
  EXPECT_EQ(engine.metrics().arrivals, 3u);
}

TEST(EngineTest, LoadSheddingDropsNewestWhenBufferFull) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CountingSink sink;
  ProcessorConfig opts;
  opts.max_buffered_arrivals = 5;
  Engine engine(plan, windows, &sink, MakeJiscStrategy(), opts);
  auto tuples = UniformWorkload(2, 2, 12);
  for (const auto& t : tuples) engine.PushNoDrain(t);
  EXPECT_EQ(engine.buffered(), 5u);
  EXPECT_EQ(engine.shed_tuples(), 7u);
  engine.Drain();
  EXPECT_EQ(engine.metrics().arrivals, 5u);
}

TEST(EngineTest, MetricsSurviveMigration) {
  LogicalPlan a = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  LogicalPlan b = LogicalPlan::LeftDeep({2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  CountingSink sink;
  Engine engine(a, windows, &sink, MakeJiscStrategy());
  auto tuples = UniformWorkload(3, 3, 100);
  for (size_t i = 0; i < 50; ++i) engine.Push(tuples[i]);
  uint64_t arrivals_before = engine.metrics().arrivals;
  ASSERT_TRUE(engine.RequestTransition(b).ok());
  for (size_t i = 50; i < 100; ++i) engine.Push(tuples[i]);
  // The metrics object persists across executor rebuilds.
  EXPECT_EQ(engine.metrics().arrivals, arrivals_before + 50);
}

TEST(EngineTest, FreshnessGenerationBumpsPerTransition) {
  LogicalPlan a = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  LogicalPlan b = LogicalPlan::LeftDeep({1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CountingSink sink;
  Engine engine(a, windows, &sink, MakeJiscStrategy());
  EXPECT_EQ(engine.freshness().generation(), 0u);
  ASSERT_TRUE(engine.RequestTransition(b).ok());
  EXPECT_EQ(engine.freshness().generation(), 1u);
  ASSERT_TRUE(engine.RequestTransition(a).ok());
  EXPECT_EQ(engine.freshness().generation(), 2u);
}

TEST(FreshnessTrackerTest, PerStreamClassification) {
  FreshnessTracker fr(2);
  EXPECT_TRUE(fr.ClassifyAndMark(0, 7));   // first ever: fresh
  EXPECT_TRUE(fr.IsFresh(1, 7));           // other stream unaffected
  fr.BumpGeneration();
  EXPECT_TRUE(fr.IsFresh(0, 7));           // fresh again after transition
  EXPECT_TRUE(fr.ClassifyAndMark(0, 7));
  EXPECT_FALSE(fr.IsFresh(0, 7));          // attempted now
  EXPECT_FALSE(fr.ClassifyAndMark(0, 7));  // still attempted
  EXPECT_TRUE(fr.ClassifyAndMark(1, 7));   // per-stream independence
}

TEST(MovingStateTest, ReportsMigrationInserts) {
  LogicalPlan a = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  LogicalPlan b = LogicalPlan::LeftDeep({2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 16);
  CountingSink sink;
  auto strategy = std::make_unique<MovingStateStrategy>();
  MovingStateStrategy* ms = strategy.get();
  Engine engine(a, windows, &sink, std::move(strategy));
  auto tuples = UniformWorkload(3, 2, 200);  // dense keys -> real states
  for (const auto& t : tuples) engine.Push(t);
  ASSERT_TRUE(engine.RequestTransition(b).ok());
  EXPECT_GT(ms->last_migration_inserts(), 0u);
  // Best-case transition back: every state matches, nothing to compute...
  // (the reversal of a reversal is the original; all states exist again).
  ASSERT_TRUE(engine.RequestTransition(a).ok());
  // Only the states absent from plan b need recomputing; the reversal
  // shares only leaves + root, so inserts are still nonzero. Check the
  // truly-shared case: transition to the identical plan.
  ASSERT_TRUE(engine.RequestTransition(a).ok());
  EXPECT_EQ(ms->last_migration_inserts(), 0u);
}

TEST(ParallelTrackTest, MigratingLifecycle) {
  LogicalPlan a = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  LogicalPlan b = LogicalPlan::LeftDeep({2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  CountingSink sink;
  ProcessorConfig opts;
  opts.purge_check_period = 8;
  ParallelTrackProcessor pt(a, windows, &sink, opts);
  EXPECT_FALSE(pt.migrating());
  auto tuples = UniformWorkload(3, 4, 400);
  size_t i = 0;
  for (; i < 100; ++i) pt.Push(tuples[i]);
  ASSERT_TRUE(pt.RequestTransition(b).ok());
  EXPECT_TRUE(pt.migrating());
  EXPECT_EQ(pt.num_live_plans(), 2u);
  // One full window turnover (3 streams x 8) plus check slack ends the
  // migration stage.
  for (; i < 200; ++i) pt.Push(tuples[i]);
  EXPECT_FALSE(pt.migrating());
  EXPECT_EQ(pt.num_live_plans(), 1u);
  EXPECT_GT(pt.metrics().purge_scan_entries, 0u);
}

TEST(ParallelTrackTest, OverlappedTransitionsRunThreePlans) {
  LogicalPlan a = LogicalPlan::LeftDeep({0, 1, 2, 3}, OpKind::kHashJoin);
  LogicalPlan b = LogicalPlan::LeftDeep({3, 2, 1, 0}, OpKind::kHashJoin);
  LogicalPlan c = LogicalPlan::LeftDeep({1, 0, 3, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 16);
  CountingSink sink;
  ProcessorConfig opts;
  opts.purge_check_period = 1024;  // keep plans alive for the test
  ParallelTrackProcessor pt(a, windows, &sink, opts);
  auto tuples = UniformWorkload(4, 4, 120);
  size_t i = 0;
  for (; i < 40; ++i) pt.Push(tuples[i]);
  ASSERT_TRUE(pt.RequestTransition(b).ok());
  for (; i < 60; ++i) pt.Push(tuples[i]);
  ASSERT_TRUE(pt.RequestTransition(c).ok());
  EXPECT_EQ(pt.num_live_plans(), 3u);
  for (; i < 120; ++i) pt.Push(tuples[i]);
}

TEST(HybridTrackTest, CopiesSharedStatesAndShortensNothingUnsound) {
  LogicalPlan a = LogicalPlan::LeftDeep({0, 1, 2, 3}, OpKind::kHashJoin);
  // Best-case reorder: almost everything is shared.
  LogicalPlan b = LogicalPlan::LeftDeep({0, 1, 3, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CountingSink sink;
  ProcessorConfig opts;
  opts.purge_check_period = 8;
  HybridTrackProcessor hy(a, windows, &sink, opts);
  auto tuples = UniformWorkload(4, 4, 400);
  size_t i = 0;
  for (; i < 100; ++i) hy.Push(tuples[i]);
  ASSERT_TRUE(hy.RequestTransition(b).ok());
  // Shared: 4 scans + {0,1} + root = 6 of 7 states.
  EXPECT_EQ(hy.last_states_copied(), 6u);
  EXPECT_TRUE(hy.migrating());
  for (; i < 250; ++i) hy.Push(tuples[i]);
  EXPECT_FALSE(hy.migrating());
}

TEST(HybridTrackTest, OverlappedClonesOnlyAuthoritativeStates) {
  LogicalPlan a = LogicalPlan::LeftDeep({0, 1, 2, 3}, OpKind::kHashJoin);
  LogicalPlan b = LogicalPlan::LeftDeep({3, 2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 16);
  CountingSink sink;
  ProcessorConfig opts;
  opts.purge_check_period = 4096;  // keep everything alive
  HybridTrackProcessor hy(a, windows, &sink, opts);
  auto tuples = UniformWorkload(4, 4, 200);
  size_t i = 0;
  for (; i < 80; ++i) hy.Push(tuples[i]);
  ASSERT_TRUE(hy.RequestTransition(b).ok());
  uint64_t first = hy.last_states_copied();
  for (; i < 100; ++i) hy.Push(tuples[i]);
  // Transition back while b's new states are still unauthoritative: only
  // the states that were authoritative in b may be cloned.
  ASSERT_TRUE(hy.RequestTransition(a).ok());
  EXPECT_EQ(hy.num_live_plans(), 3u);
  EXPECT_LE(hy.last_states_copied(), first);
  for (; i < 200; ++i) hy.Push(tuples[i]);
}

TEST(HybridTrackTest, RejectsNonJoinPlans) {
  LogicalPlan joins = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  CountingSink sink;
  HybridTrackProcessor hy(joins, windows, &sink);
  EXPECT_FALSE(
      hy.RequestTransition(LogicalPlan::SemiJoinChain(0, {1, 2})).ok());
  EXPECT_FALSE(
      hy.RequestTransition(LogicalPlan::SetDifferenceChain(0, {1, 2})).ok());
}

TEST(ParallelTrackTest, RejectsSetDifference) {
  LogicalPlan joins = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  LogicalPlan diff = LogicalPlan::SetDifferenceChain(0, {1, 2});
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  CountingSink sink;
  ParallelTrackProcessor pt(joins, windows, &sink);
  EXPECT_EQ(pt.RequestTransition(diff).code(), StatusCode::kUnimplemented);
}

TEST(ParallelTrackTest, RejectsMismatchedStreams) {
  LogicalPlan a = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  LogicalPlan other = LogicalPlan::LeftDeep({1, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  CountingSink sink;
  ParallelTrackProcessor pt(a, windows, &sink);
  EXPECT_FALSE(pt.RequestTransition(other).ok());
}

TEST(JiscRuntimeTest, IncompleteCountDrainsToZero) {
  LogicalPlan a = LogicalPlan::LeftDeep(IdentityOrder(4), OpKind::kHashJoin);
  LogicalPlan b = LogicalPlan::LeftDeep({3, 2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CountingSink sink;
  auto runtime = std::make_unique<JiscRuntime>();
  JiscRuntime* rt = runtime.get();
  ProcessorConfig eopts;
  eopts.maintain_period = 16;
  Engine engine(a, windows, &sink, std::move(runtime), eopts);
  auto tuples = UniformWorkload(4, 4, 400);
  size_t i = 0;
  for (; i < 100; ++i) engine.Push(tuples[i]);
  ASSERT_TRUE(engine.RequestTransition(b).ok());
  EXPECT_GT(rt->num_incomplete(), 0);
  for (; i < 400; ++i) engine.Push(tuples[i]);
  EXPECT_EQ(rt->num_incomplete(), 0);
}

TEST(OperatorDebugTest, DebugStringsAreInformative) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CountingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  std::string s = engine.executor().root()->DebugString();
  EXPECT_NE(s.find("HJ"), std::string::npos);
  EXPECT_NE(s.find("State"), std::string::npos);
}

#if GTEST_HAS_DEATH_TEST
TEST(CheckDeathTest, FatalCheckAborts) {
  EXPECT_DEATH(JISC_CHECK(1 == 2) << "boom", "Check failed");
}

TEST(CheckDeathTest, ScanRejectsForeignArrivals) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CountingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  BaseTuple bad;
  bad.stream = 9;  // no scan for this stream
  EXPECT_DEATH(engine.Push(bad), "no scan for stream");
}
#endif

}  // namespace
}  // namespace jisc
