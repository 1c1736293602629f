// Property suite for the correctness theorems of the paper's appendix:
// for any workload and any transition schedule, every migration strategy
// must produce exactly the output of a never-migrated reference
// (Completeness + Closedness + Duplicate-freedom).

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "migration/moving_state.h"
#include "migration/hybrid_track.h"
#include "migration/parallel_track.h"
#include "plan/transitions.h"
#include "tests/test_util.h"

namespace jisc {
namespace {

using testutil::DriveAndCompare;
using testutil::IdentityOrder;
using testutil::UniformWorkload;

enum class StrategyKind {
  kJiscOnProbe,
  kJiscOnFirstReceipt,
  kJiscTurnoverDetection,
  kJiscRecursiveOnly,
  kMovingState,
  kParallelTrack,
  kHybridTrack,
};

const char* StrategyName(StrategyKind k) {
  switch (k) {
    case StrategyKind::kJiscOnProbe:
      return "JiscOnProbe";
    case StrategyKind::kJiscOnFirstReceipt:
      return "JiscOnFirstReceipt";
    case StrategyKind::kJiscTurnoverDetection:
      return "JiscTurnoverDetection";
    case StrategyKind::kJiscRecursiveOnly:
      return "JiscRecursiveOnly";
    case StrategyKind::kMovingState:
      return "MovingState";
    case StrategyKind::kParallelTrack:
      return "ParallelTrack";
    case StrategyKind::kHybridTrack:
      return "HybridTrack";
  }
  return "?";
}

std::unique_ptr<StreamProcessor> MakeProcessor(StrategyKind kind,
                                               const LogicalPlan& plan,
                                               const WindowSpec& windows,
                                               Sink* sink, ThetaSpec theta) {
  ProcessorConfig config;
  config.exec.theta = theta;
  config.maintain_period = 32;  // exercise detection often in tests
  config.purge_check_period = 64;
  switch (kind) {
    case StrategyKind::kJiscOnProbe:
      return std::make_unique<Engine>(plan, windows, sink, MakeJiscStrategy(),
                                      config);
    case StrategyKind::kJiscOnFirstReceipt: {
      JiscOptions j;
      j.completion_mode = JiscOptions::CompletionMode::kOnFirstReceipt;
      return std::make_unique<Engine>(plan, windows, sink,
                                      MakeJiscStrategy(j), config);
    }
    case StrategyKind::kJiscTurnoverDetection: {
      JiscOptions j;
      j.detection = JiscOptions::DetectionMode::kWindowTurnoverOnly;
      return std::make_unique<Engine>(plan, windows, sink,
                                      MakeJiscStrategy(j), config);
    }
    case StrategyKind::kJiscRecursiveOnly: {
      JiscOptions j;
      j.use_left_deep_procedure = false;
      return std::make_unique<Engine>(plan, windows, sink,
                                      MakeJiscStrategy(j), config);
    }
    case StrategyKind::kMovingState:
      return std::make_unique<Engine>(plan, windows, sink,
                                      MakeMovingStateStrategy(), config);
    case StrategyKind::kParallelTrack:
      return std::make_unique<ParallelTrackProcessor>(plan, windows, sink,
                                                      config);
    case StrategyKind::kHybridTrack:
      return std::make_unique<HybridTrackProcessor>(plan, windows, sink,
                                                    config);
  }
  return nullptr;
}

struct Scenario {
  StrategyKind strategy;
  int num_streams;
  uint64_t window;
  uint64_t domain;
  size_t tuples;
  bool bushy;
  int64_t theta_band;  // 0 => hash joins; > 0 => NLJ band joins
};

class EquivalenceTest : public ::testing::TestWithParam<Scenario> {};

// A single forced best-case transition mid-run.
TEST_P(EquivalenceTest, BestCaseTransition) {
  const Scenario& sc = GetParam();
  ThetaSpec theta{sc.theta_band};
  OpKind kind = sc.theta_band > 0 ? OpKind::kNljJoin : OpKind::kHashJoin;
  auto order = IdentityOrder(sc.num_streams);
  LogicalPlan plan = sc.bushy ? LogicalPlan::BalancedBushy(order, kind)
                              : LogicalPlan::LeftDeep(order, kind);
  LogicalPlan next = LogicalPlan::LeftDeep(BestCaseOrder(order), kind);
  WindowSpec windows = WindowSpec::Uniform(sc.num_streams, sc.window);
  CollectingSink sink;
  auto proc = MakeProcessor(sc.strategy, plan, windows, &sink, theta);
  auto tuples = UniformWorkload(sc.num_streams, sc.domain, sc.tuples);
  std::map<size_t, LogicalPlan> schedule{{sc.tuples / 2, next}};
  auto r = DriveAndCompare(proc.get(), &sink, sc.num_streams, windows, tuples,
                           schedule, theta);
  EXPECT_TRUE(r.outputs_match)
      << StrategyName(sc.strategy) << ": " << r.outputs << " outputs vs "
      << r.reference_outputs << " reference";
  EXPECT_TRUE(r.retractions_match) << StrategyName(sc.strategy);
}

// A single worst-case (reversal) transition mid-run.
TEST_P(EquivalenceTest, WorstCaseTransition) {
  const Scenario& sc = GetParam();
  ThetaSpec theta{sc.theta_band};
  OpKind kind = sc.theta_band > 0 ? OpKind::kNljJoin : OpKind::kHashJoin;
  auto order = IdentityOrder(sc.num_streams);
  LogicalPlan plan = sc.bushy ? LogicalPlan::BalancedBushy(order, kind)
                              : LogicalPlan::LeftDeep(order, kind);
  LogicalPlan next = LogicalPlan::LeftDeep(WorstCaseOrder(order), kind);
  WindowSpec windows = WindowSpec::Uniform(sc.num_streams, sc.window);
  CollectingSink sink;
  auto proc = MakeProcessor(sc.strategy, plan, windows, &sink, theta);
  auto tuples = UniformWorkload(sc.num_streams, sc.domain, sc.tuples);
  std::map<size_t, LogicalPlan> schedule{{sc.tuples / 2, next}};
  auto r = DriveAndCompare(proc.get(), &sink, sc.num_streams, windows, tuples,
                           schedule, theta);
  EXPECT_TRUE(r.outputs_match)
      << StrategyName(sc.strategy) << ": " << r.outputs << " outputs vs "
      << r.reference_outputs << " reference";
  EXPECT_TRUE(r.retractions_match) << StrategyName(sc.strategy);
}

// Overlapped random transitions (Section 4.5): several transitions in quick
// succession, before earlier ones' states complete.
TEST_P(EquivalenceTest, OverlappedRandomTransitions) {
  const Scenario& sc = GetParam();
  ThetaSpec theta{sc.theta_band};
  OpKind kind = sc.theta_band > 0 ? OpKind::kNljJoin : OpKind::kHashJoin;
  auto order = IdentityOrder(sc.num_streams);
  LogicalPlan plan = sc.bushy ? LogicalPlan::BalancedBushy(order, kind)
                              : LogicalPlan::LeftDeep(order, kind);
  WindowSpec windows = WindowSpec::Uniform(sc.num_streams, sc.window);
  CollectingSink sink;
  auto proc = MakeProcessor(sc.strategy, plan, windows, &sink, theta);
  auto tuples = UniformWorkload(sc.num_streams, sc.domain, sc.tuples);
  Rng rng(0xfeed + static_cast<uint64_t>(sc.strategy));
  std::map<size_t, LogicalPlan> schedule;
  auto cur = order;
  // Transitions every tuples/8 events: well inside window turnover, so
  // earlier incomplete states are still incomplete.
  for (size_t at = sc.tuples / 8; at < sc.tuples; at += sc.tuples / 8) {
    cur = RandomTriangularSwap(cur, &rng);
    schedule.emplace(at, LogicalPlan::LeftDeep(cur, kind));
  }
  auto r = DriveAndCompare(proc.get(), &sink, sc.num_streams, windows, tuples,
                           schedule, theta);
  EXPECT_TRUE(r.outputs_match)
      << StrategyName(sc.strategy) << ": " << r.outputs << " outputs vs "
      << r.reference_outputs << " reference";
  EXPECT_TRUE(r.retractions_match) << StrategyName(sc.strategy);
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> out;
  for (StrategyKind k :
       {StrategyKind::kJiscOnProbe, StrategyKind::kJiscOnFirstReceipt,
        StrategyKind::kJiscTurnoverDetection,
        StrategyKind::kJiscRecursiveOnly, StrategyKind::kMovingState,
        StrategyKind::kParallelTrack, StrategyKind::kHybridTrack}) {
    // Hash joins, left-deep, 3 and 5 streams.
    out.push_back({k, 3, 8, 4, 400, false, 0});
    out.push_back({k, 5, 6, 3, 500, false, 0});
    // Wider plan, tiny windows (heavy expiry churn).
    out.push_back({k, 6, 3, 2, 500, false, 0});
    // Bushy initial plan.
    out.push_back({k, 4, 6, 3, 400, true, 0});
    // Larger window, sparse keys (many never-matching values).
    out.push_back({k, 4, 12, 24, 400, false, 0});
    // Theta band joins (small: quadratic reference).
    out.push_back({k, 3, 5, 6, 200, false, 1});
  }
  return out;
}

std::string ScenarioLabel(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  std::string name = StrategyName(s.strategy);
  name += "_n" + std::to_string(s.num_streams);
  name += "_w" + std::to_string(s.window);
  name += s.bushy ? "_bushy" : "_leftdeep";
  if (s.theta_band > 0) name += "_band";
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, EquivalenceTest,
                         ::testing::ValuesIn(AllScenarios()), ScenarioLabel);

}  // namespace
}  // namespace jisc
