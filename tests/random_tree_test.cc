// The strongest migration property test: JISC transitions between
// arbitrary random tree shapes (bushy <-> bushy <-> left-deep), outputs
// checked against the brute-force reference. Plus lottery-routing CACQ
// equivalence.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "eddy/cacq.h"
#include "migration/moving_state.h"
#include "plan/plan_text.h"
#include "tests/test_util.h"

namespace jisc {
namespace {

using testutil::IdentityMultiset;
using testutil::IdentityOrder;
using testutil::UniformWorkload;

struct TreeFuzzParam {
  uint64_t seed;
  bool moving_state;
};

class RandomTreeMigrationTest
    : public ::testing::TestWithParam<TreeFuzzParam> {};

TEST_P(RandomTreeMigrationTest, ArbitraryShapesMatchReference) {
  const TreeFuzzParam& fp = GetParam();
  Rng rng(fp.seed * 7919 + 3);
  int n = 4 + static_cast<int>(rng.UniformU64(3));  // 4..6 streams
  uint64_t window = 4 + rng.UniformU64(5);
  uint64_t domain = 2 + rng.UniformU64(4);
  auto streams = IdentityOrder(n);
  LogicalPlan plan = RandomPlanTree(streams, OpKind::kHashJoin, &rng);
  WindowSpec windows = WindowSpec::Uniform(n, window);
  CollectingSink sink;
  ProcessorConfig eopts;
  eopts.maintain_period = 16;
  Engine engine(plan, windows, &sink,
                fp.moving_state ? MakeMovingStateStrategy()
                                : MakeJiscStrategy(),
                eopts);
  NaiveJoinReference ref(n, windows);
  std::vector<Tuple> ref_out;
  std::vector<Tuple> ref_ret;
  auto tuples = UniformWorkload(n, domain, 500, fp.seed);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0 && i % 60 == 0) {
      LogicalPlan next = RandomPlanTree(streams, OpKind::kHashJoin, &rng);
      ASSERT_TRUE(engine.RequestTransition(next).ok())
          << next.ToString();
    }
    engine.Push(tuples[i]);
    ref.Push(tuples[i], &ref_out, &ref_ret);
  }
  EXPECT_EQ(IdentityMultiset(sink.outputs()), IdentityMultiset(ref_out))
      << "seed " << fp.seed;
  EXPECT_EQ(IdentityMultiset(sink.retractions()), IdentityMultiset(ref_ret))
      << "seed " << fp.seed;
}

std::vector<TreeFuzzParam> TreeParams() {
  std::vector<TreeFuzzParam> out;
  for (uint64_t s = 1; s <= 10; ++s) out.push_back({s, s % 4 == 0});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomTreeMigrationTest, ::testing::ValuesIn(TreeParams()),
    [](const ::testing::TestParamInfo<TreeFuzzParam>& info) {
      return (info.param.moving_state ? std::string("MovingState_seed")
                                      : std::string("Jisc_seed")) +
             std::to_string(info.param.seed);
    });

TEST(CacqLotteryTest, OutputMatchesFixedPriority) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 6);
  auto tuples = UniformWorkload(4, 4, 500);
  CollectingSink fixed_sink;
  CacqExecutor fixed(plan, windows, &fixed_sink,
                     CacqExecutor::RoutingPolicy::kFixedPriority);
  CollectingSink lottery_sink;
  CacqExecutor lottery(plan, windows, &lottery_sink,
                       CacqExecutor::RoutingPolicy::kLottery);
  for (const auto& t : tuples) {
    fixed.Push(t);
    lottery.Push(t);
  }
  // Routing affects cost, never output.
  EXPECT_EQ(IdentityMultiset(fixed_sink.outputs()),
            IdentityMultiset(lottery_sink.outputs()));
}

TEST(CacqLotteryTest, SelectiveSteMsEarnTickets) {
  // Stream 2 never matches (disjoint keys): its SteM disqualifies almost
  // every probe and must accumulate tickets.
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  CollectingSink sink;
  CacqExecutor cacq(plan, windows, &sink,
                    CacqExecutor::RoutingPolicy::kLottery);
  Seq seq = 0;
  for (int round = 0; round < 300; ++round) {
    BaseTuple a{.stream = 0, .key = 1, .payload = 0, .seq = seq++};
    BaseTuple b{.stream = 1, .key = 1, .payload = 0, .seq = seq++};
    BaseTuple c{.stream = 2, .key = 999, .payload = 0, .seq = seq++};
    cacq.Push(a);
    cacq.Push(b);
    cacq.Push(c);
  }
  EXPECT_TRUE(sink.outputs().empty());  // stream 2 blocks everything
  EXPECT_GT(cacq.tickets(2), cacq.tickets(1));
}

}  // namespace
}  // namespace jisc
