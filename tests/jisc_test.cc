// Scenario tests for the JISC mechanics of Section 4, mirroring the paper's
// running examples (Figures 2-5) and the Section 4.x subtleties.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "migration/moving_state.h"
#include "plan/transitions.h"
#include "tests/test_util.h"

namespace jisc {
namespace {

using testutil::IdentityMultiset;
using testutil::IdentityOrder;
using testutil::UniformWorkload;

BaseTuple Mk(StreamId stream, JoinKey key, Seq seq) {
  BaseTuple b;
  b.stream = stream;
  b.key = key;
  b.seq = seq;
  return b;
}

struct JiscEngine {
  explicit JiscEngine(const LogicalPlan& plan, uint64_t window = 16,
                      JiscOptions jopts = JiscOptions(),
                      int num_streams = 4) {
    auto runtime = std::make_unique<JiscRuntime>(jopts);
    runtime_ = runtime.get();
    ProcessorConfig eopts;
    eopts.maintain_period = 8;
    engine = std::make_unique<Engine>(
        plan, WindowSpec::Uniform(num_streams, window), &sink,
        std::move(runtime), eopts);
  }

  JiscRuntime* runtime_ = nullptr;
  CollectingSink sink;
  std::unique_ptr<Engine> engine;
};

// Streams named as in the paper: R=0, S=1, T=2, U=3.
constexpr StreamId R = 0, S = 1, T = 2, U = 3;

// Figure 2 / Section 2.2 scenario 1 (Completeness): s, t, u arrive before
// the transition ((R|S)|T)|U -> ((S|T)|U)|R; r arrives right after. The
// quadruple (r, s, t, u) must be produced: state ST is incomplete and is
// completed on demand when r probes STU.
TEST(JiscScenarioTest, Figure2MissingOutputScenario) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep({R, S, T, U},
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({S, T, U, R},
                                               OpKind::kHashJoin);
  JiscEngine je(old_plan);
  je.engine->Push(Mk(S, 7, 0));
  je.engine->Push(Mk(T, 7, 1));
  je.engine->Push(Mk(U, 7, 2));
  EXPECT_TRUE(je.sink.outputs().empty());
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  EXPECT_GT(je.runtime_->num_incomplete(), 0);
  je.engine->Push(Mk(R, 7, 3));
  ASSERT_EQ(je.sink.outputs().size(), 1u);
  EXPECT_EQ(je.sink.outputs()[0].parts().size(), 4u);
}

// Closedness: same setup but the arriving tuple matches nothing; no
// spurious output may be produced even though incomplete states are probed.
TEST(JiscScenarioTest, NoSpuriousOutputAfterTransition) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep({R, S, T, U},
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({S, T, U, R},
                                               OpKind::kHashJoin);
  JiscEngine je(old_plan);
  je.engine->Push(Mk(S, 7, 0));
  je.engine->Push(Mk(T, 7, 1));
  // u never arrives with key 7.
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  je.engine->Push(Mk(R, 7, 2));
  je.engine->Push(Mk(R, 9, 3));
  EXPECT_TRUE(je.sink.outputs().empty());
}

// Section 4.2's sliding-window scenario (third scenario of Section 2.2):
// r, s, t arrive pre-transition; right after the transition S's window
// slides s out. The removal must propagate *through* the incomplete state
// ST and clear the copied RST entry, so u's later arrival finds nothing.
TEST(JiscScenarioTest, Section42WindowSlideThroughIncompleteState) {
  const uint64_t kWindow = 2;
  LogicalPlan old_plan = LogicalPlan::LeftDeep({R, S, T, U},
                                               OpKind::kHashJoin);
  // New plan where ST is incomplete but RST is complete (Fig. 3d-style):
  // ((S|T)|R)|U.
  LogicalPlan new_plan = LogicalPlan::LeftDeep({S, T, R, U},
                                               OpKind::kHashJoin);
  JiscEngine je(old_plan, kWindow);
  je.engine->Push(Mk(R, 7, 0));
  je.engine->Push(Mk(S, 7, 1));
  je.engine->Push(Mk(T, 7, 2));
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  // Slide s out of S's window with two unrelated S tuples.
  je.engine->Push(Mk(S, 100, 3));
  je.engine->Push(Mk(S, 101, 4));
  // u arrives; (r,s,t,u) must NOT be produced (s expired).
  je.engine->Push(Mk(U, 7, 5));
  EXPECT_TRUE(je.sink.outputs().empty());
}

// Definition 1 classification on the live engine after a reversal
// transition (Fig. 3b): UT and UTS incomplete, root and leaves complete.
TEST(JiscStateTest, Figure3bLiveClassification) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep({R, S, T, U},
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({U, T, S, R},
                                               OpKind::kHashJoin);
  JiscEngine je(old_plan);
  auto tuples = UniformWorkload(4, 4, 64);
  for (const auto& t : tuples) je.engine->Push(t);
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  PipelineExecutor& exec = je.engine->executor();
  auto set = [](std::initializer_list<StreamId> ss) {
    StreamSet acc;
    for (StreamId s : ss) acc = StreamSet::Union(acc, StreamSet::Single(s));
    return acc;
  };
  EXPECT_FALSE(exec.OpForStreams(set({U, T}))->state().complete());
  EXPECT_FALSE(exec.OpForStreams(set({U, T, S}))->state().complete());
  EXPECT_TRUE(exec.OpForStreams(set({U, T, S, R}))->state().complete());
  for (StreamId s : {R, S, T, U}) {
    EXPECT_TRUE(exec.OpForStreams(StreamSet::Single(s))->state().complete());
  }
  EXPECT_EQ(je.runtime_->num_incomplete(), 2);
}

// The copied state must actually carry its content: after the transition
// the reused state RST contains the pre-transition combinations.
TEST(JiscStateTest, ReusedStateKeepsContent) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep({R, S, T, U},
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({S, T, R, U},
                                               OpKind::kHashJoin);
  JiscEngine je(old_plan);
  je.engine->Push(Mk(R, 7, 0));
  je.engine->Push(Mk(S, 7, 1));
  je.engine->Push(Mk(T, 7, 2));
  auto rst = StreamSet::Union(
      StreamSet::Union(StreamSet::Single(R), StreamSet::Single(S)),
      StreamSet::Single(T));
  EXPECT_EQ(je.engine->executor().OpForStreams(rst)->state().live_size(), 1u);
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  Operator* op = je.engine->executor().OpForStreams(rst);
  ASSERT_NE(op, nullptr);
  EXPECT_TRUE(op->state().complete());
  EXPECT_EQ(op->state().live_size(), 1u);
}

// Section 4.5 (Figure 4): after overlapped transitions a state that exists
// in the previous plan but is still incomplete there must remain
// incomplete.
TEST(JiscStateTest, OverlappedTransitionKeepsIncompleteness) {
  LogicalPlan plan_a = LogicalPlan::LeftDeep({R, S, T, U}, OpKind::kHashJoin);
  LogicalPlan plan_b = LogicalPlan::LeftDeep({S, T, R, U}, OpKind::kHashJoin);
  LogicalPlan plan_c = LogicalPlan::LeftDeep({S, T, U, R}, OpKind::kHashJoin);
  JiscEngine je(plan_a, /*window=*/64);
  auto tuples = UniformWorkload(4, 4, 128);
  for (const auto& t : tuples) je.engine->Push(t);
  ASSERT_TRUE(je.engine->RequestTransition(plan_b).ok());
  auto st = StreamSet::Union(StreamSet::Single(S), StreamSet::Single(T));
  EXPECT_FALSE(je.engine->executor().OpForStreams(st)->state().complete());
  // Immediately transition again: ST exists in plan_b but is incomplete
  // there, so it must stay incomplete in plan_c (naive Definition 1 would
  // wrongly call it complete).
  ASSERT_TRUE(je.engine->RequestTransition(plan_c).ok());
  EXPECT_FALSE(je.engine->executor().OpForStreams(st)->state().complete());
}

// Section 4.4: completing the entries for one value happens at most once
// per state, even when several same-value tuples arrive.
TEST(JiscStateTest, RepeatedValueCompletesOnce) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep({R, S, T, U},
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({S, T, U, R},
                                               OpKind::kHashJoin);
  JiscEngine je(old_plan);
  je.engine->Push(Mk(S, 7, 0));
  je.engine->Push(Mk(T, 7, 1));
  je.engine->Push(Mk(U, 7, 2));
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  je.engine->Push(Mk(R, 7, 3));
  uint64_t completions_after_first = je.engine->metrics().completions;
  EXPECT_GT(completions_after_first, 0u);
  je.engine->Push(Mk(R, 7, 4));
  je.engine->Push(Mk(R, 7, 5));
  EXPECT_EQ(je.engine->metrics().completions, completions_after_first);
}

// Section 4.3, Case 1 and 2 counter initialization.
TEST(JiscTrackerTest, CounterCases) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep({R, S, T, U},
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({U, T, S, R},
                                               OpKind::kHashJoin);
  JiscEngine je(old_plan, /*window=*/32);
  // Distinct key counts: U gets keys {1,2,3}, T gets {1,2}, S {1}, R {1}.
  je.engine->Push(Mk(U, 1, 0));
  je.engine->Push(Mk(U, 2, 1));
  je.engine->Push(Mk(U, 3, 2));
  je.engine->Push(Mk(T, 1, 3));
  je.engine->Push(Mk(T, 2, 4));
  je.engine->Push(Mk(S, 1, 5));
  je.engine->Push(Mk(R, 1, 6));
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  // The transition itself is O(1) per tracker (like the paper's integer
  // counter); the pending-value snapshot happens on the first maintenance
  // sweep.
  je.runtime_->Maintain(je.engine.get());
  // UT: both children (U scan, T scan) complete -> Case 1; the smaller
  // child is T with 2 distinct values.
  PipelineExecutor& exec = je.engine->executor();
  auto ut = StreamSet::Union(StreamSet::Single(U), StreamSet::Single(T));
  const CompletionTracker* tr_ut =
      je.runtime_->tracker(exec.OpForStreams(ut)->node_id());
  ASSERT_NE(tr_ut, nullptr);
  EXPECT_EQ(tr_ut->init_case(), CompletionTracker::InitCase::kBothComplete);
  EXPECT_EQ(tr_ut->pending(), 2u);
  // UTS: left child UT incomplete, right child S complete -> Case 2 with
  // the complete child's (S's) 1 distinct value.
  auto uts = StreamSet::Union(ut, StreamSet::Single(S));
  const CompletionTracker* tr_uts =
      je.runtime_->tracker(exec.OpForStreams(uts)->node_id());
  ASSERT_NE(tr_uts, nullptr);
  EXPECT_EQ(tr_uts->init_case(), CompletionTracker::InitCase::kOneComplete);
  EXPECT_EQ(tr_uts->pending(), 1u);
}

// Case 3 (both children incomplete) arises for bushy targets; with the
// deferred rule the tracker initializes only once the children complete.
TEST(JiscTrackerTest, Case3DeferredOnBushyTarget) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep(IdentityOrder(8),
                                               OpKind::kHashJoin);
  // Bushy target over the reversed order: node {4,5,6,7} is new and both
  // its children {7,6} and {5,4} are new -> Case 3.
  LogicalPlan new_plan = LogicalPlan::BalancedBushy({7, 6, 5, 4, 3, 2, 1, 0},
                                                    OpKind::kHashJoin);
  JiscEngine je(old_plan, /*window=*/16, JiscOptions(), /*num_streams=*/8);
  auto tuples = UniformWorkload(8, 4, 128);
  for (const auto& t : tuples) je.engine->Push(t);
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  StreamSet upper;
  for (StreamId x : {4, 5, 6, 7}) {
    upper = StreamSet::Union(upper, StreamSet::Single(static_cast<StreamId>(x)));
  }
  Operator* op = je.engine->executor().OpForStreams(upper);
  ASSERT_NE(op, nullptr);
  const CompletionTracker* tr = je.runtime_->tracker(op->node_id());
  ASSERT_NE(tr, nullptr);
  EXPECT_EQ(tr->init_case(), CompletionTracker::InitCase::kNoneComplete);
  EXPECT_FALSE(tr->initialized());
}

// Counter-based detection: after every pending value has been probed, the
// state is declared complete by the Maintain sweep.
TEST(JiscTrackerTest, CounterDetectionMarksComplete) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep({R, S, T, U},
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({U, T, S, R},
                                               OpKind::kHashJoin);
  JiscEngine je(old_plan, /*window=*/64);
  // Two keys only, alternating on every stream, so two completions per
  // incomplete state finish it.
  for (Seq i = 0; i < 40; ++i) {
    je.engine->Push(Mk(static_cast<StreamId>(i % 4), 1 + ((i / 4) % 2), i));
  }
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  EXPECT_EQ(je.runtime_->num_incomplete(), 2);
  // Push tuples of both keys on every stream: probes complete both values
  // at both incomplete states; Maintain (period 8) then marks them.
  for (Seq i = 100; i < 140; ++i) {
    je.engine->Push(Mk(static_cast<StreamId>(i % 4), 1 + ((i / 4) % 2), i));
  }
  EXPECT_EQ(je.runtime_->num_incomplete(), 0);
  auto ut = StreamSet::Union(StreamSet::Single(U), StreamSet::Single(T));
  EXPECT_TRUE(je.engine->executor().OpForStreams(ut)->state().complete());
}

// Window-turnover fallback: with counters disabled, states become complete
// once every pre-transition tuple expired.
TEST(JiscTrackerTest, WindowTurnoverDetection) {
  JiscOptions jopts;
  jopts.detection = JiscOptions::DetectionMode::kWindowTurnoverOnly;
  LogicalPlan old_plan = LogicalPlan::LeftDeep({R, S, T, U},
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({U, T, S, R},
                                               OpKind::kHashJoin);
  const uint64_t kWindow = 8;
  JiscEngine je(old_plan, kWindow, jopts);
  auto tuples = UniformWorkload(4, 64, 200);  // sparse keys: few probes hit
  size_t i = 0;
  for (; i < 60; ++i) je.engine->Push(tuples[i]);
  ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
  EXPECT_EQ(je.runtime_->num_incomplete(), 2);
  // 4 streams x window 8 = 32 tuples turn the windows over; add slack for
  // the Maintain period.
  for (; i < 130; ++i) je.engine->Push(tuples[i]);
  EXPECT_EQ(je.runtime_->num_incomplete(), 0);
}

// Procedure 2 (recursive) and Procedure 3 (left-deep spine walk) must do
// identical work and produce identical output.
TEST(JiscProcedureTest, LeftDeepProcedureEquivalent) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep(IdentityOrder(5),
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep(WorstCaseOrder(IdentityOrder(5)),
                                               OpKind::kHashJoin);
  auto tuples = UniformWorkload(5, 4, 600);

  auto run = [&](bool left_deep_proc) {
    JiscOptions j;
    j.use_left_deep_procedure = left_deep_proc;
    JiscEngine je(old_plan, /*window=*/8, j, /*num_streams=*/5);
    size_t i = 0;
    for (; i < 300; ++i) je.engine->Push(tuples[i]);
    EXPECT_TRUE(je.engine->RequestTransition(new_plan).ok());
    for (; i < tuples.size(); ++i) je.engine->Push(tuples[i]);
    return std::make_tuple(IdentityMultiset(je.sink.outputs()),
                           je.engine->metrics().completion_inserts,
                           je.engine->metrics().completions);
  };
  auto [out_p3, inserts_p3, completions_p3] = run(true);
  auto [out_p2, inserts_p2, completions_p2] = run(false);
  EXPECT_EQ(out_p3, out_p2);
  EXPECT_EQ(inserts_p3, inserts_p2);
  EXPECT_EQ(completions_p3, completions_p2);
}

// Section 4.7: an aggregate on top of the plan is a unary operator with an
// always-complete state; a transition must not perturb it.
TEST(JiscScenarioTest, AggregationUnaffectedByTransition) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({3, 2, 1, 0},
                                               OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CountAggregateSink agg;
  Engine engine(old_plan, windows, &agg, MakeJiscStrategy());
  NaiveJoinReference ref(4, windows);
  auto tuples = UniformWorkload(4, 4, 400);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 200) ASSERT_TRUE(engine.RequestTransition(new_plan).ok());
    engine.Push(tuples[i]);
    ref.Push(tuples[i], nullptr, nullptr);
  }
  EXPECT_EQ(agg.count(), static_cast<int64_t>(ref.CurrentResult().size()));
}

// The paper's literal Case-3 rule is available behind an option; on
// left-deep transition chains (no Case 3 states) it behaves identically.
TEST(JiscOptionsTest, PaperCase3RuleOnLeftDeepChains) {
  JiscOptions j;
  j.paper_case3 = true;
  LogicalPlan old_plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({3, 2, 1, 0},
                                               OpKind::kHashJoin);
  JiscEngine je(old_plan, /*window=*/8, j);
  NaiveJoinReference ref(4, WindowSpec::Uniform(4, 8));
  std::vector<Tuple> ref_out;
  auto tuples = UniformWorkload(4, 4, 400);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 200) ASSERT_TRUE(je.engine->RequestTransition(new_plan).ok());
    je.engine->Push(tuples[i]);
    ref.Push(tuples[i], &ref_out, nullptr);
  }
  EXPECT_EQ(IdentityMultiset(je.sink.outputs()), IdentityMultiset(ref_out));
}

// Moving State leaves every state complete and content-identical to a
// freshly rebuilt (never-migrated) engine.
TEST(MovingStateTest, EagerStatesMatchFreshEngine) {
  LogicalPlan old_plan = LogicalPlan::LeftDeep(IdentityOrder(4),
                                               OpKind::kHashJoin);
  LogicalPlan new_plan = LogicalPlan::LeftDeep({2, 3, 0, 1},
                                               OpKind::kHashJoin);
  WindowSpec windows = WindowSpec::Uniform(4, 8);
  CollectingSink sink_a;
  Engine migrated(old_plan, windows, &sink_a, MakeMovingStateStrategy());
  CollectingSink sink_b;
  Engine fresh(new_plan, windows, &sink_b, MakeMovingStateStrategy());
  auto tuples = UniformWorkload(4, 3, 200);
  for (const auto& t : tuples) {
    migrated.Push(t);
    fresh.Push(t);
  }
  ASSERT_TRUE(migrated.RequestTransition(new_plan).ok());
  for (int id = 0; id < new_plan.num_nodes(); ++id) {
    const OperatorState& a = migrated.executor().op(id)->state();
    const OperatorState& b = fresh.executor().op(id)->state();
    EXPECT_TRUE(a.complete());
    EXPECT_EQ(a.live_size(), b.live_size()) << "node " << id;
    EXPECT_EQ(a.DistinctLiveKeys(), b.DistinctLiveKeys()) << "node " << id;
  }
}

}  // namespace
}  // namespace jisc
