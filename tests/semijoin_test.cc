// Windowed semi join — the Section 4.7 treatment applied to one more
// stateful binary operator — and its JISC migration.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "migration/moving_state.h"
#include "migration/parallel_track.h"
#include "reference/naive_reference.h"
#include "tests/test_util.h"

namespace jisc {
namespace {

using testutil::IdentityMultiset;

BaseTuple Mk(StreamId stream, JoinKey key, Seq seq) {
  BaseTuple b;
  b.stream = stream;
  b.key = key;
  b.seq = seq;
  return b;
}

std::multiset<uint64_t> RootLiveSet(Engine* engine) {
  std::multiset<uint64_t> out;
  engine->executor().root()->state().ForEachLive(
      [&](const Tuple& t) { out.insert(t.IdentityHash()); });
  return out;
}

std::multiset<uint64_t> ReferenceSet(const NaiveSemiJoinReference& ref) {
  std::multiset<uint64_t> out;
  for (const BaseTuple& b : ref.CurrentResult()) {
    out.insert(Tuple::FromBase(b, 0, true).IdentityHash());
  }
  return out;
}

TEST(SemiJoinTest, WitnessArrivalQualifies) {
  LogicalPlan plan = LogicalPlan::SemiJoinChain(0, {1});
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  engine.Push(Mk(0, 5, 0));  // no witness yet -> not emitted
  EXPECT_TRUE(sink.outputs().empty());
  engine.Push(Mk(1, 5, 1));  // witness arrives -> qualifies
  ASSERT_EQ(sink.outputs().size(), 1u);
  EXPECT_EQ(sink.outputs()[0].key(), 5);
}

TEST(SemiJoinTest, SecondWitnessDoesNotReEmit) {
  LogicalPlan plan = LogicalPlan::SemiJoinChain(0, {1});
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  engine.Push(Mk(0, 5, 0));
  engine.Push(Mk(1, 5, 1));
  engine.Push(Mk(1, 5, 2));  // duplicate witness
  EXPECT_EQ(sink.outputs().size(), 1u);
}

TEST(SemiJoinTest, LastWitnessExpiryRetracts) {
  LogicalPlan plan = LogicalPlan::SemiJoinChain(0, {1});
  WindowSpec windows = WindowSpec::Uniform(2, 2);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  engine.Push(Mk(0, 5, 0));
  engine.Push(Mk(1, 5, 1));  // qualifies
  ASSERT_EQ(sink.outputs().size(), 1u);
  // Push two unrelated inner tuples: the witness expires.
  engine.Push(Mk(1, 9, 2));
  engine.Push(Mk(1, 9, 3));
  EXPECT_EQ(sink.retractions().size(), 1u);
  EXPECT_EQ(engine.executor().root()->state().live_size(), 0u);
}

TEST(SemiJoinTest, OuterArrivalWithLiveWitness) {
  LogicalPlan plan = LogicalPlan::SemiJoinChain(0, {1});
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  engine.Push(Mk(1, 5, 0));  // witness first
  engine.Push(Mk(0, 5, 1));  // outer joins immediately
  EXPECT_EQ(sink.outputs().size(), 1u);
}

TEST(SemiJoinTest, ChainMatchesNaiveReference) {
  LogicalPlan plan = LogicalPlan::SemiJoinChain(0, {1, 2, 3});
  WindowSpec windows = WindowSpec::Uniform(4, 6);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  NaiveSemiJoinReference ref(0, {1, 2, 3}, windows);
  auto tuples = testutil::UniformWorkload(4, 5, 500);
  for (const auto& t : tuples) {
    engine.Push(t);
    ref.Push(t);
  }
  EXPECT_EQ(RootLiveSet(&engine), ReferenceSet(ref));
}

// The inner-clear rule applied to semi joins: after a migration, losing the
// last witness at an incomplete state must clear the (materialized) entry
// in the complete ancestor.
TEST(SemiJoinTest, WitnessLossClearsThroughIncompleteStates) {
  constexpr StreamId A = 0, B = 1, C = 2, D = 3;
  LogicalPlan old_plan = LogicalPlan::SemiJoinChain(A, {B, C, D});
  LogicalPlan new_plan = LogicalPlan::SemiJoinChain(A, {D, B, C});
  WindowSpec windows = WindowSpec::Uniform(4, 2);
  CollectingSink sink;
  Engine engine(old_plan, windows, &sink, MakeJiscStrategy());
  // a witnessed everywhere -> in every chain state, emitted once.
  engine.Push(Mk(A, 7, 0));
  engine.Push(Mk(B, 7, 1));
  engine.Push(Mk(C, 7, 2));
  engine.Push(Mk(D, 7, 3));
  ASSERT_EQ(sink.outputs().size(), 1u);
  ASSERT_TRUE(engine.RequestTransition(new_plan).ok());
  // D's witness expires (window 2): the incomplete AD state has nothing
  // materialized, but the complete ADBC root does -- the clear must reach
  // it.
  engine.Push(Mk(D, 100, 4));
  engine.Push(Mk(D, 101, 5));
  EXPECT_EQ(sink.retractions().size(), 1u);
  EXPECT_EQ(engine.executor().root()->state().live_size(), 0u);
}

TEST(SemiJoinTest, ParallelTrackRejectsSemiJoin) {
  LogicalPlan joins = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  LogicalPlan semi = LogicalPlan::SemiJoinChain(0, {1});
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CountingSink sink;
  ParallelTrackProcessor pt(joins, windows, &sink);
  EXPECT_EQ(pt.RequestTransition(semi).code(), StatusCode::kUnimplemented);
}

struct SemiScenario {
  bool moving_state;
  JiscOptions::CompletionMode mode;
};

class SemiJoinMigrationTest
    : public ::testing::TestWithParam<SemiScenario> {};

TEST_P(SemiJoinMigrationTest, TransitionsMatchReference) {
  LogicalPlan plan_a = LogicalPlan::SemiJoinChain(0, {1, 2, 3});
  LogicalPlan plan_b = LogicalPlan::SemiJoinChain(0, {3, 1, 2});
  LogicalPlan plan_c = LogicalPlan::SemiJoinChain(0, {2, 3, 1});
  WindowSpec windows = WindowSpec::Uniform(4, 5);
  CollectingSink sink;
  std::unique_ptr<MigrationStrategy> strategy;
  if (GetParam().moving_state) {
    strategy = MakeMovingStateStrategy();
  } else {
    JiscOptions j;
    j.completion_mode = GetParam().mode;
    strategy = MakeJiscStrategy(j);
  }
  ProcessorConfig eopts;
  eopts.maintain_period = 16;
  Engine engine(plan_a, windows, &sink, std::move(strategy), eopts);
  NaiveSemiJoinReference ref(0, {1, 2, 3}, windows);
  auto tuples = testutil::UniformWorkload(4, 4, 600);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 150) ASSERT_TRUE(engine.RequestTransition(plan_b).ok());
    if (i == 300) ASSERT_TRUE(engine.RequestTransition(plan_c).ok());
    engine.Push(tuples[i]);
    ref.Push(tuples[i]);
    if (i % 89 == 0 || i + 1 == tuples.size()) {
      ASSERT_EQ(RootLiveSet(&engine), ReferenceSet(ref)) << "at tuple " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SemiJoinMigrationTest,
    ::testing::Values(
        SemiScenario{false, JiscOptions::CompletionMode::kOnProbe},
        SemiScenario{false, JiscOptions::CompletionMode::kOnFirstReceipt},
        SemiScenario{true, JiscOptions::CompletionMode::kOnProbe}),
    [](const ::testing::TestParamInfo<SemiScenario>& i) {
      if (i.param.moving_state) return std::string("MovingState");
      return i.param.mode == JiscOptions::CompletionMode::kOnProbe
                 ? std::string("JiscOnProbe")
                 : std::string("JiscOnFirstReceipt");
    });

}  // namespace
}  // namespace jisc
