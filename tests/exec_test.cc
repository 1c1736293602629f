#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "migration/moving_state.h"
#include "reference/naive_reference.h"
#include "tests/test_util.h"

namespace jisc {
namespace {

using testutil::DriveAndCompare;
using testutil::IdentityMultiset;
using testutil::IdentityOrder;
using testutil::UniformWorkload;

std::unique_ptr<Engine> MakeEngine(const LogicalPlan& plan,
                                   const WindowSpec& windows, Sink* sink,
                                   ThetaSpec theta = ThetaSpec()) {
  ProcessorConfig opts;
  opts.exec.theta = theta;
  return std::make_unique<Engine>(plan, windows, sink, MakeJiscStrategy(),
                                  opts);
}

TEST(ExecTest, TwoWayJoinMatchesReference) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 8);
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  auto tuples = UniformWorkload(2, 4, 200);
  auto r = DriveAndCompare(engine.get(), &sink, 2, windows, tuples, {});
  EXPECT_TRUE(r.outputs_match) << r.outputs << " vs " << r.reference_outputs;
  EXPECT_TRUE(r.retractions_match);
  EXPECT_GT(r.outputs, 0u);
}

TEST(ExecTest, FourWayLeftDeepMatchesReference) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 10);
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  auto tuples = UniformWorkload(4, 5, 400);
  auto r = DriveAndCompare(engine.get(), &sink, 4, windows, tuples, {});
  EXPECT_TRUE(r.outputs_match) << r.outputs << " vs " << r.reference_outputs;
  EXPECT_TRUE(r.retractions_match);
  EXPECT_GT(r.outputs, 0u);
}

TEST(ExecTest, BushyPlanMatchesReference) {
  LogicalPlan plan = LogicalPlan::BalancedBushy(IdentityOrder(4),
                                                OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 10);
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  auto tuples = UniformWorkload(4, 5, 400);
  auto r = DriveAndCompare(engine.get(), &sink, 4, windows, tuples, {});
  EXPECT_TRUE(r.outputs_match);
  EXPECT_TRUE(r.retractions_match);
}

TEST(ExecTest, PerStreamWindowSizes) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::PerStream({4, 12, 7});
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  auto tuples = UniformWorkload(3, 4, 300);
  auto r = DriveAndCompare(engine.get(), &sink, 3, windows, tuples, {});
  EXPECT_TRUE(r.outputs_match);
  EXPECT_TRUE(r.retractions_match);
}

TEST(ExecTest, NestedLoopsEquiJoinMatchesReference) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kNljJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  auto tuples = UniformWorkload(3, 4, 250);
  auto r = DriveAndCompare(engine.get(), &sink, 3, windows, tuples, {});
  EXPECT_TRUE(r.outputs_match);
  EXPECT_TRUE(r.retractions_match);
}

TEST(ExecTest, BandThetaJoinMatchesReference) {
  ThetaSpec theta;
  theta.band = 1;
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kNljJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 6);
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink, theta);
  auto tuples = UniformWorkload(3, 6, 250);
  auto r = DriveAndCompare(engine.get(), &sink, 3, windows, tuples, {}, theta);
  EXPECT_TRUE(r.outputs_match);
  EXPECT_TRUE(r.retractions_match);
  EXPECT_GT(r.outputs, 0u);
}

TEST(ExecTest, MixedHashAndNljPlanMatchesReference) {
  LogicalPlan plan = LogicalPlan::LeftDeepMixed(
      {0, 1, 2}, {OpKind::kHashJoin, OpKind::kNljJoin});
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  auto tuples = UniformWorkload(3, 4, 250);
  auto r = DriveAndCompare(engine.get(), &sink, 3, windows, tuples, {});
  EXPECT_TRUE(r.outputs_match);
  EXPECT_TRUE(r.retractions_match);
}

// Section 2.1: when the window slides, the arriving tuple must not join the
// tuple it displaces.
TEST(ExecTest, ArrivingTupleDoesNotJoinDisplacedTuple) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 1);  // window of one
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  BaseTuple a{.stream = 0, .key = 1, .payload = 0, .seq = 0};
  BaseTuple b{.stream = 1, .key = 1, .payload = 0, .seq = 1};
  BaseTuple b2{.stream = 1, .key = 1, .payload = 0, .seq = 2};
  engine->Push(a);
  engine->Push(b);   // joins with a -> 1 output
  engine->Push(b2);  // displaces b; joins with a -> 1 more output
  EXPECT_EQ(sink.outputs().size(), 2u);
  // b's expiry retracted the (a,b) result.
  EXPECT_EQ(sink.retractions().size(), 1u);
}

TEST(ExecTest, CountAggregateTracksLiveResult) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 6);
  CountAggregateSink agg;
  auto engine = MakeEngine(plan, windows, &agg);
  NaiveJoinReference ref(3, windows);
  auto tuples = UniformWorkload(3, 3, 300);
  for (const BaseTuple& t : tuples) {
    engine->Push(t);
    ref.Push(t, nullptr, nullptr);
  }
  EXPECT_EQ(agg.count(),
            static_cast<int64_t>(ref.CurrentResult().size()));
}

TEST(ExecTest, GroupCountMatchesReferenceGroups) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 6);
  GroupCountSink agg;
  auto engine = MakeEngine(plan, windows, &agg);
  NaiveJoinReference ref(2, windows);
  auto tuples = UniformWorkload(2, 3, 200);
  for (const BaseTuple& t : tuples) {
    engine->Push(t);
    ref.Push(t, nullptr, nullptr);
  }
  std::map<JoinKey, int64_t> expect;
  for (const Tuple& t : ref.CurrentResult()) expect[t.key()] += 1;
  EXPECT_EQ(agg.counts(), expect);
}

// Buffered admission (PushNoDrain + Drain) must be equivalent to per-event
// processing: the stamp-visibility rule makes output independent of queue
// scheduling.
TEST(ExecTest, BufferedAdmissionEquivalentToImmediate) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1, 2}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 8);
  auto tuples = UniformWorkload(3, 4, 240);

  CollectingSink immediate_sink;
  auto immediate = MakeEngine(plan, windows, &immediate_sink);
  for (const BaseTuple& t : tuples) immediate->Push(t);

  CollectingSink buffered_sink;
  auto buffered = MakeEngine(plan, windows, &buffered_sink);
  for (size_t i = 0; i < tuples.size(); ++i) {
    buffered->PushNoDrain(tuples[i]);
    if (i % 16 == 15) buffered->Drain();
  }
  buffered->Drain();

  EXPECT_EQ(IdentityMultiset(immediate_sink.outputs()),
            IdentityMultiset(buffered_sink.outputs()));
  EXPECT_EQ(IdentityMultiset(immediate_sink.retractions()),
            IdentityMultiset(buffered_sink.retractions()));
}

// Section 4.1: a transition requested while arrivals sit in the input
// queues first clears them through the old plan.
TEST(ExecTest, TransitionDrainsBufferedTuplesThroughOldPlan) {
  LogicalPlan plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                           OpKind::kHashJoin);
  LogicalPlan new_plan =
      LogicalPlan::LeftDeep({3, 2, 1, 0}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  auto tuples = UniformWorkload(4, 4, 300);

  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  NaiveJoinReference ref(4, windows);
  std::vector<Tuple> ref_out;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 150) {
      // Buffer a burst, then request the transition without draining.
      for (size_t j = 0; j < 20 && i < tuples.size(); ++j, ++i) {
        engine->PushNoDrain(tuples[i]);
        ref.Push(tuples[i], &ref_out, nullptr);
      }
      ASSERT_TRUE(engine->RequestTransition(new_plan).ok());
    }
    if (i >= tuples.size()) break;
    engine->Push(tuples[i]);
    ref.Push(tuples[i], &ref_out, nullptr);
  }
  EXPECT_EQ(IdentityMultiset(sink.outputs()), IdentityMultiset(ref_out));
}

TEST(ExecTest, MetricsCountArrivalsAndOutputs) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  auto tuples = UniformWorkload(2, 2, 100);
  for (const BaseTuple& t : tuples) engine->Push(t);
  EXPECT_EQ(engine->metrics().arrivals, 100u);
  EXPECT_EQ(engine->metrics().outputs, sink.outputs().size());
  EXPECT_GT(engine->metrics().probes, 0u);
  EXPECT_GT(engine->metrics().WorkUnits(), 0u);
}

TEST(ExecTest, ScanWindowBookkeeping) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 3);
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  for (Seq i = 0; i < 10; ++i) {
    BaseTuple t{.stream = 0, .key = static_cast<JoinKey>(i), .payload = 0,
                .seq = i};
    engine->Push(t);
  }
  StreamScan* scan = engine->executor().scan(0);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->window_fill(), 3u);
  EXPECT_EQ(scan->OldestLiveSeq(), 7u);
  EXPECT_EQ(scan->state().live_size(), 3u);
  StreamScan* other = engine->executor().scan(1);
  EXPECT_EQ(other->window_fill(), 0u);
  EXPECT_EQ(other->OldestLiveSeq(), kStampInfinity);
}

TEST(ExecTest, RejectsTransitionToDifferentStreams) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(3, 4);
  CollectingSink sink;
  auto engine = MakeEngine(plan, windows, &sink);
  LogicalPlan other = LogicalPlan::LeftDeep({1, 2}, OpKind::kHashJoin);
  EXPECT_FALSE(engine->RequestTransition(other).ok());
}

// The per-operator message queue is the admission path for arrivals;
// intra-event cascades use direct dispatch. The queue must still deliver
// every message kind correctly (it is public Operator API).
TEST(ExecTest, QueueDeliveryPathStillWorks) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  Engine engine(plan, windows, &sink, MakeJiscStrategy());
  // Seed via normal pushes.
  BaseTuple a{.stream = 0, .key = 5, .payload = 1, .seq = 0};
  BaseTuple b{.stream = 1, .key = 5, .payload = 2, .seq = 1};
  engine.Push(a);
  engine.Push(b);
  ASSERT_EQ(sink.outputs().size(), 1u);
  // Hand-deliver a data message to the join through its queue.
  PipelineExecutor& exec = engine.executor();
  Operator* root = exec.root();
  Message m;
  m.kind = Message::Kind::kData;
  m.from = Side::kRight;
  m.stamp = 1000;
  BaseTuple c{.stream = 1, .key = 5, .payload = 3, .seq = 2};
  m.tuple = Tuple::FromBase(c, 1000, true);
  root->Enqueue(std::move(m));
  EXPECT_TRUE(root->HasWork());
  exec.RunUntilIdle();
  EXPECT_FALSE(root->HasWork());
  EXPECT_EQ(sink.outputs().size(), 2u);  // joined with the live S0 tuple
  // And a removal message.
  Message r;
  r.kind = Message::Kind::kRemoval;
  r.from = Side::kLeft;
  r.stamp = 1001;
  r.base = a;
  root->Enqueue(std::move(r));
  exec.RunUntilIdle();
  EXPECT_EQ(sink.retractions().size(), 2u);  // both combos contained a
}

TEST(ExecTest, EngineNameReflectsStrategy) {
  LogicalPlan plan = LogicalPlan::LeftDeep({0, 1}, OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(2, 4);
  CollectingSink sink;
  Engine jisc_engine(plan, windows, &sink, MakeJiscStrategy());
  EXPECT_EQ(jisc_engine.name(), "jisc");
  Engine ms_engine(plan, windows, &sink, MakeMovingStateStrategy());
  EXPECT_EQ(ms_engine.name(), "moving-state");
}

}  // namespace
}  // namespace jisc
