// The executor invariant validator, applied after real runs of every
// strategy and operator kind — a deep self-check of the state machinery.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "exec/validate.h"
#include "migration/moving_state.h"
#include "plan/plan_text.h"
#include "plan/transitions.h"
#include "tests/test_util.h"

namespace jisc {
namespace {

using testutil::IdentityOrder;
using testutil::UniformWorkload;

TEST(ValidateTest, SteadyStateHashJoins) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CountingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  for (const auto& t : UniformWorkload(4, 4, 300)) engine.Push(t);
  EXPECT_TRUE(ValidateExecutorInvariants(engine.executor()).ok());
}

TEST(ValidateTest, MidMigrationJisc) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep({3, 2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CountingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  auto tuples = UniformWorkload(4, 4, 400);
  size_t i = 0;
  for (; i < 100; ++i) engine.Push(tuples[i]);
  ASSERT_TRUE(engine.RequestTransition(next).ok());
  // Right after the transition (incomplete states are exempt from content
  // equality but complete ones must already hold).
  EXPECT_TRUE(ValidateExecutorInvariants(engine.executor()).ok());
  for (; i < 150; ++i) engine.Push(tuples[i]);
  EXPECT_TRUE(ValidateExecutorInvariants(engine.executor()).ok());
  // After turnover everything is complete again.
  for (; i < 400; ++i) engine.Push(tuples[i]);
  EXPECT_TRUE(ValidateExecutorInvariants(engine.executor()).ok());
}

TEST(ValidateTest, MovingStateAfterMigration) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::BalancedBushy({2, 0, 3, 1},
                                                OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CountingSink sink;
  Engine engine(plan, windows, &sink, MakeMovingStateStrategy());
  for (const auto& t : UniformWorkload(4, 3, 200)) engine.Push(t);
  ASSERT_TRUE(engine.RequestTransition(next).ok());
  EXPECT_TRUE(ValidateExecutorInvariants(engine.executor()).ok());
}

TEST(ValidateTest, ThetaAndChains) {
  ThetaSpec theta{1};
  ProcessorConfig opts;
  opts.exec.theta = theta;
  {
    LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kNljJoin);
    CountingSink sink;
    Engine engine(plan, WindowSpec::Uniform(3, 6), &sink, MakeJiscStrategy(),
                  opts);
    for (const auto& t : UniformWorkload(3, 5, 200)) engine.Push(t);
    EXPECT_TRUE(ValidateExecutorInvariants(engine.executor(), theta).ok());
  }
  {
    LogicalPlan plan = LogicalPlan::SetDifferenceChain(0, {1, 2});
    CountingSink sink;
    Engine engine(plan, WindowSpec::Uniform(3, 6), &sink, MakeJiscStrategy());
    for (const auto& t : UniformWorkload(3, 4, 200)) engine.Push(t);
    EXPECT_TRUE(ValidateExecutorInvariants(engine.executor()).ok());
  }
  {
    LogicalPlan plan = LogicalPlan::SemiJoinChain(0, {1, 2});
    CountingSink sink;
    Engine engine(plan, WindowSpec::Uniform(3, 6), &sink, MakeJiscStrategy());
    for (const auto& t : UniformWorkload(3, 4, 200)) engine.Push(t);
    EXPECT_TRUE(ValidateExecutorInvariants(engine.executor()).ok());
  }
}

TEST(ValidateTest, RandomTreesUnderRandomMigrations) {
  Rng rng(99);
  auto streams = IdentityOrder(5);
  LogicalPlan plan = RandomPlanTree(streams, OpKind::kHashJoin, &rng);
  WindowSpec windows = WindowSpec::Uniform(5, 6);
  CountingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  auto tuples = UniformWorkload(5, 3, 600);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0 && i % 80 == 0) {
      ASSERT_TRUE(engine
                      .RequestTransition(
                          RandomPlanTree(streams, OpKind::kHashJoin, &rng))
                      .ok());
    }
    engine.Push(tuples[i]);
    if (i % 50 == 49) {
      ASSERT_TRUE(ValidateExecutorInvariants(engine.executor()).ok())
          << "at tuple " << i;
    }
  }
}

TEST(ValidateTest, StateMemoryTracksContent) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 16);
  CountingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  uint64_t empty = engine.StateMemory();
  for (const auto& t : UniformWorkload(2, 4, 100)) engine.Push(t);
  uint64_t filled = engine.StateMemory();
  EXPECT_GT(filled, empty);
  EXPECT_GT(filled, 32u * (sizeof(Tuple)));  // windows alone hold 32 tuples
}

void ExpectStateBytesAgree(const PipelineExecutor& exec) {
  for (int id = 0; id < exec.num_ops(); ++id) {
    const OperatorState& st = exec.op(id)->state();
    EXPECT_EQ(StateBytes(st), st.ApproxBytes()) << "op " << id;
    EXPECT_GE(st.ApproxBytes(), st.TableBytes());
  }
  EXPECT_EQ(StateMemoryBytes(exec), ApproxStateMemoryBytes(exec));
}

// The O(1) telemetry estimate and the exact walk charge the same bytes,
// including the bucket table's slot array, mid-migration too.
TEST(ValidateTest, StateBytesAgreesWithApproxBytes) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(3),
                                           OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep({2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 32);
  CountingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  auto tuples = UniformWorkload(3, 16, 400);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 200) {
      ASSERT_TRUE(engine.RequestTransition(next).ok());
    }
    engine.Push(tuples[i]);
    if (i % 40 != 39) continue;
    ExpectStateBytesAgree(engine.executor());
  }
  // Semi-join and set-difference states store their outer tuples, which
  // are narrower than the state's id(): both must charge the stored width.
  const LogicalPlan chains[] = {LogicalPlan::SemiJoinChain(0, {1, 2}),
                                LogicalPlan::SetDifferenceChain(0, {1, 2})};
  for (const LogicalPlan& chain : chains) {
    CountingSink chain_sink;
    Engine chain_engine(chain, WindowSpec::Uniform(3, 6), &chain_sink,
                        MakeJiscStrategy());
    auto chain_tuples = UniformWorkload(3, 4, 200);
    for (size_t i = 0; i < chain_tuples.size(); ++i) {
      chain_engine.Push(chain_tuples[i]);
      if (i % 40 == 39) ExpectStateBytesAgree(chain_engine.executor());
    }
  }
}

}  // namespace
}  // namespace jisc
