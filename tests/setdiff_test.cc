// Windowed set-difference operator and its JISC migration (Section 4.7).

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "migration/moving_state.h"
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

// Live result of a difference engine = live entries of the root state.
std::multiset<uint64_t> RootLiveSet(Engine* engine) {
  std::multiset<uint64_t> out;
  engine->executor().root()->state().ForEachLive(
      [&](const Tuple& t) { out.insert(t.IdentityHash()); });
  return out;
}

std::multiset<uint64_t> ReferenceSet(const NaiveDifferenceReference& ref) {
  std::multiset<uint64_t> out;
  for (const BaseTuple& b : ref.CurrentResult()) {
    out.insert(Tuple::FromBase(b, 0, true).IdentityHash());
  }
  return out;
}

TEST(SetDifferenceTest, BasicSuppressionAndRequalification) {
  LogicalPlan plan = LogicalPlan::SetDifferenceChain(0, {1});
  WindowSpec windows = WindowSpec::Uniform(2, 2);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  engine.Push(Mk(0, 5, 0));  // a admitted (no inner match)
  EXPECT_EQ(sink.outputs().size(), 1u);
  engine.Push(Mk(1, 5, 1));  // b suppresses a -> retraction
  EXPECT_EQ(sink.retractions().size(), 1u);
  EXPECT_EQ(engine.executor().root()->state().live_size(), 0u);
  // Slide b out of the inner window: a re-qualifies and is re-emitted.
  engine.Push(Mk(1, 9, 2));
  engine.Push(Mk(1, 9, 3));
  EXPECT_EQ(sink.outputs().size(), 2u);
  EXPECT_EQ(engine.executor().root()->state().live_size(), 1u);
}

TEST(SetDifferenceTest, OuterExpiryRemoves) {
  LogicalPlan plan = LogicalPlan::SetDifferenceChain(0, {1});
  WindowSpec windows = WindowSpec::Uniform(2, 1);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  engine.Push(Mk(0, 5, 0));
  engine.Push(Mk(0, 6, 1));  // displaces a
  EXPECT_EQ(sink.outputs().size(), 2u);
  EXPECT_EQ(sink.retractions().size(), 1u);
  EXPECT_EQ(engine.executor().root()->state().live_size(), 1u);
}

TEST(SetDifferenceTest, ChainMatchesNaiveReference) {
  LogicalPlan plan = LogicalPlan::SetDifferenceChain(0, {1, 2, 3});
  WindowSpec windows = WindowSpec::Uniform(4, 6);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  NaiveDifferenceReference ref(0, {1, 2, 3}, windows);
  auto tuples = testutil::UniformWorkload(4, 5, 400);
  for (const auto& t : tuples) {
    engine.Push(t);
    ref.Push(t);
  }
  EXPECT_EQ(RootLiveSet(&engine), ReferenceSet(ref));
}

// Section 4.7's example: ((A-B)-C)-D migrates to ((A-D)-B)-C. States AD and
// ADB are incomplete; ADBC is complete.
TEST(SetDifferenceTest, Section47Classification) {
  constexpr StreamId A = 0, B = 1, C = 2, D = 3;
  LogicalPlan old_plan = LogicalPlan::SetDifferenceChain(A, {B, C, D});
  LogicalPlan new_plan = LogicalPlan::SetDifferenceChain(A, {D, B, C});
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CollectingSink sink;
  Engine engine(old_plan, windows, &sink, MakeJiscStrategy());
  auto tuples = testutil::UniformWorkload(4, 4, 64);
  for (const auto& t : tuples) engine.Push(t);
  ASSERT_TRUE(engine.RequestTransition(new_plan).ok());
  auto set = [](std::initializer_list<StreamId> ss) {
    StreamSet acc;
    for (StreamId s : ss) acc = StreamSet::Union(acc, StreamSet::Single(s));
    return acc;
  };
  PipelineExecutor& exec = engine.executor();
  EXPECT_FALSE(exec.OpForStreams(set({A, D}))->state().complete());
  EXPECT_FALSE(exec.OpForStreams(set({A, D, B}))->state().complete());
  EXPECT_TRUE(exec.OpForStreams(set({A, D, B, C}))->state().complete());
}

// The Section 4.7 inner-clear rule: a fresh inner tuple probing an
// incomplete state is forwarded up to the first complete state, where the
// matching outer entry is cleared.
TEST(SetDifferenceTest, InnerClearPropagatesPastIncompleteStates) {
  constexpr StreamId A = 0, B = 1, C = 2, D = 3;
  LogicalPlan old_plan = LogicalPlan::SetDifferenceChain(A, {B, C, D});
  LogicalPlan new_plan = LogicalPlan::SetDifferenceChain(A, {D, B, C});
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CollectingSink sink;
  Engine engine(old_plan, windows, &sink, MakeJiscStrategy());
  // a survives (no inner matches anywhere) -> lives in every chain state.
  engine.Push(Mk(A, 7, 0));
  EXPECT_EQ(sink.outputs().size(), 1u);
  ASSERT_TRUE(engine.RequestTransition(new_plan).ok());
  // d arrives with a's key: it probes the incomplete AD state (empty), and
  // must be forwarded up until the complete ADBC state, clearing a there.
  engine.Push(Mk(D, 7, 1));
  ASSERT_EQ(sink.retractions().size(), 1u);
  EXPECT_EQ(engine.executor().root()->state().live_size(), 0u);
}

// Migration equivalence sweep: JISC (both procedures) and Moving State on a
// difference chain with transitions must match the naive reference at every
// checkpoint.
struct DiffScenario {
  bool moving_state;
  bool left_deep_procedure;
};

class SetDiffMigrationTest : public ::testing::TestWithParam<DiffScenario> {};

TEST_P(SetDiffMigrationTest, TransitionsMatchReference) {
  constexpr StreamId A = 0;
  LogicalPlan plan_a = LogicalPlan::SetDifferenceChain(A, {1, 2, 3});
  LogicalPlan plan_b = LogicalPlan::SetDifferenceChain(A, {3, 1, 2});
  LogicalPlan plan_c = LogicalPlan::SetDifferenceChain(A, {2, 3, 1});
  WindowSpec windows = WindowSpec::Uniform(4, 5);
  CollectingSink sink;
  std::unique_ptr<MigrationStrategy> strategy;
  if (GetParam().moving_state) {
    strategy = MakeMovingStateStrategy();
  } else {
    JiscOptions j;
    j.use_left_deep_procedure = GetParam().left_deep_procedure;
    strategy = MakeJiscStrategy(j);
  }
  ProcessorConfig eopts;
  eopts.maintain_period = 16;
  Engine engine(plan_a, windows, &sink, std::move(strategy), eopts);
  NaiveDifferenceReference ref(A, {1, 2, 3}, windows);
  auto tuples = testutil::UniformWorkload(4, 4, 600);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 150) ASSERT_TRUE(engine.RequestTransition(plan_b).ok());
    if (i == 300) ASSERT_TRUE(engine.RequestTransition(plan_c).ok());
    engine.Push(tuples[i]);
    ref.Push(tuples[i]);
    if (i % 97 == 0 || i + 1 == tuples.size()) {
      ASSERT_EQ(RootLiveSet(&engine), ReferenceSet(ref)) << "at tuple " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SetDiffMigrationTest,
    ::testing::Values(DiffScenario{false, true}, DiffScenario{false, false},
                      DiffScenario{true, false}),
    [](const ::testing::TestParamInfo<DiffScenario>& i) {
      if (i.param.moving_state) return std::string("MovingState");
      return i.param.left_deep_procedure ? std::string("JiscLeftDeep")
                                         : std::string("JiscRecursive");
    });

}  // namespace
}  // namespace jisc
