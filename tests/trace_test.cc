// Test battery for migration-phase tracing (obs/trace.h + the spans the
// engine and the migration strategies emit): each strategy's transition
// must record its documented phase-span sequence with correct nesting, the
// ring buffer must drop oldest-first without corrupting surviving spans,
// and the exporters must produce loadable JSON.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "migration/hybrid_track.h"
#include "migration/moving_state.h"
#include "migration/parallel_track.h"
#include "obs/observability.h"
#include "obs/trace_export.h"
#include "plan/transitions.h"
#include "tests/test_util.h"
#include "workload/factory.h"

namespace jisc {
namespace {

using testutil::IdentityOrder;
using testutil::UniformWorkload;

// Spans named `name`, in recorded (ring) order.
std::vector<TraceSpan> SpansNamed(const std::vector<TraceSpan>& spans,
                                  const std::string& name) {
  std::vector<TraceSpan> out;
  for (const TraceSpan& s : spans) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

bool HasSpan(const std::vector<TraceSpan>& spans, const std::string& name) {
  return !SpansNamed(spans, name).empty();
}

// True when `inner` nests inside `outer` both structurally (depth) and
// temporally (time interval containment).
bool NestsWithin(const TraceSpan& inner, const TraceSpan& outer) {
  return inner.depth > outer.depth && inner.start_ns >= outer.start_ns &&
         inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns;
}

// --- ring buffer -----------------------------------------------------------

TraceSpan MakeSpan(const char* name, uint64_t start, uint64_t arg) {
  TraceSpan s;
  s.name = name;
  s.category = "test";
  s.start_ns = start;
  s.dur_ns = 1;
  s.arg_name = "i";
  s.arg = arg;
  return s;
}

TEST(TraceRecorderTest, RecordsInOrderBelowCapacity) {
  TraceRecorder rec(8);
  for (uint64_t i = 0; i < 5; ++i) rec.Record(MakeSpan("s", i, i));
  auto spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(spans[i].arg, i);
}

TEST(TraceRecorderTest, RingDropsOldestFirst) {
  TraceRecorder rec(4);
  for (uint64_t i = 0; i < 10; ++i) rec.Record(MakeSpan("s", i, i));
  auto spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // The oldest six were evicted; the survivors are intact, oldest first.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].arg, 6 + i);
    EXPECT_EQ(std::string(spans[i].name), "s");
    EXPECT_EQ(spans[i].start_ns, 6 + i);
  }
}

TEST(TraceRecorderTest, WrapManyTimesStaysConsistent) {
  TraceRecorder rec(8);
  for (uint64_t i = 0; i < 1000; ++i) rec.Record(MakeSpan("s", i, i));
  auto spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_EQ(rec.dropped(), 992u);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(spans[i].arg, 992 + i);
}

TEST(TraceRecorderTest, ClearKeepsEpoch) {
  TraceRecorder rec(8);
  rec.Record(MakeSpan("s", 1, 1));
  uint64_t before = rec.NowNs();
  rec.Clear();
  EXPECT_TRUE(rec.Snapshot().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  // Clear must not reset the epoch: timestamps keep advancing.
  EXPECT_GE(rec.NowNs(), before);
}

TEST(TraceRecorderTest, ConcurrentRecordDoesNotCorrupt) {
  // Writers from several threads hammer a small ring (forcing constant
  // eviction) while a reader snapshots; every surviving span must be one
  // that some writer actually recorded. TSan gates this.
  TraceRecorder rec(16);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 5000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        rec.Record(MakeSpan("w", static_cast<uint64_t>(w), i));
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    for (const TraceSpan& s : rec.Snapshot()) {
      EXPECT_EQ(std::string(s.name), "w");
      EXPECT_LT(s.start_ns, static_cast<uint64_t>(kWriters));
      EXPECT_LT(s.arg, kPerWriter);
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(rec.Snapshot().size(), 16u);
  EXPECT_EQ(rec.dropped(), kWriters * kPerWriter - 16);
}

// --- TraceScope nesting ----------------------------------------------------

TEST(TraceScopeTest, NullRecorderIsNoOp) {
  TraceScope outer(nullptr, "a", "test");
  outer.SetArg("x", 1);  // must not crash
}

TEST(TraceScopeTest, NestedScopesCarryDepth) {
  TraceRecorder rec(16);
  {
    TraceScope outer(&rec, "outer", "test");
    {
      TraceScope inner(&rec, "inner", "test");
      TraceScope innermost(&rec, "innermost", "test");
    }
  }
  auto spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Children record before parents (RAII), depths reflect nesting.
  auto outer = SpansNamed(spans, "outer");
  auto inner = SpansNamed(spans, "inner");
  auto innermost = SpansNamed(spans, "innermost");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  ASSERT_EQ(innermost.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0);
  EXPECT_EQ(inner[0].depth, 1);
  EXPECT_EQ(innermost[0].depth, 2);
  EXPECT_TRUE(NestsWithin(inner[0], outer[0]));
  EXPECT_TRUE(NestsWithin(innermost[0], inner[0]));
}

// --- migration-phase spans per strategy ------------------------------------

// One warmed engine-strategy run with a forced transition; returns the
// recorded spans.
std::vector<TraceSpan> RunEngineTransition(
    std::unique_ptr<MigrationStrategy> strategy, Observability* obs) {
  int streams = 3;
  uint64_t window = 40;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep(
      WorstCaseOrder(IdentityOrder(streams)), OpKind::kHashJoin);
  CountingSink sink;
  ProcessorConfig opts;
  opts.obs = obs;
  Engine engine(plan, WindowSpec::Uniform(streams, window), &sink,
                std::move(strategy), opts);
  auto tuples = UniformWorkload(streams, window, 600, /*seed=*/5);
  size_t half = tuples.size() / 2;
  for (size_t i = 0; i < half; ++i) engine.Push(tuples[i]);
  EXPECT_TRUE(engine.RequestTransition(next).ok());
  for (size_t i = half; i < tuples.size(); ++i) engine.Push(tuples[i]);
  EXPECT_GT(sink.outputs(), 0u);
  return obs->trace.Snapshot();
}

TEST(MigrationTraceTest, JiscPhaseSequence) {
  Observability obs;
  auto spans = RunEngineTransition(MakeJiscStrategy(), &obs);
  // The engine wraps the whole migration in "transition" with a nested
  // "drain"; the JISC runtime records "plan-diff" then "state-carryover"
  // inside it; post-transition probes of incomplete states record
  // per-value "jit-completion" spans.
  auto transition = SpansNamed(spans, "transition");
  ASSERT_EQ(transition.size(), 1u);
  auto drain = SpansNamed(spans, "drain");
  ASSERT_EQ(drain.size(), 1u);
  auto diff = SpansNamed(spans, "plan-diff");
  ASSERT_EQ(diff.size(), 1u);
  auto carry = SpansNamed(spans, "state-carryover");
  ASSERT_EQ(carry.size(), 1u);
  EXPECT_TRUE(NestsWithin(drain[0], transition[0]));
  EXPECT_TRUE(NestsWithin(diff[0], transition[0]));
  EXPECT_TRUE(NestsWithin(carry[0], transition[0]));
  // Phase order: drain, then diff, then carryover.
  EXPECT_LE(drain[0].start_ns + drain[0].dur_ns, diff[0].start_ns);
  EXPECT_LE(diff[0].start_ns + diff[0].dur_ns, carry[0].start_ns);
  // The worst-case reorder leaves states incomplete: JISC must complete
  // values just in time, after the transition closed.
  auto jit = SpansNamed(spans, "jit-completion");
  ASSERT_FALSE(jit.empty());
  for (const TraceSpan& s : jit) {
    EXPECT_GE(s.start_ns, transition[0].start_ns + transition[0].dur_ns);
    EXPECT_EQ(std::string(s.arg_name), "key");
  }
  // Everything JISC traced is migration-phase work.
  for (const TraceSpan& s : spans) {
    EXPECT_EQ(std::string(s.category), "migration") << s.name;
  }
  // And the completion histogram saw the same completions.
  EXPECT_EQ(obs.completion_ns.count(), jit.size());
}

TEST(MigrationTraceTest, MovingStatePhaseSequence) {
  Observability obs;
  auto spans = RunEngineTransition(MakeMovingStateStrategy(), &obs);
  auto transition = SpansNamed(spans, "transition");
  ASSERT_EQ(transition.size(), 1u);
  auto copy = SpansNamed(spans, "state-copy");
  ASSERT_EQ(copy.size(), 1u);
  auto compute = SpansNamed(spans, "state-compute");
  ASSERT_EQ(compute.size(), 1u);
  EXPECT_TRUE(NestsWithin(copy[0], transition[0]));
  EXPECT_TRUE(NestsWithin(compute[0], transition[0]));
  EXPECT_LE(copy[0].start_ns + copy[0].dur_ns, compute[0].start_ns);
  // Moving State is eager: it never completes anything just in time.
  EXPECT_FALSE(HasSpan(spans, "jit-completion"));
  EXPECT_EQ(obs.completion_ns.count(), 0u);
  // The eager rebuild materialized entries inside the transition.
  ASSERT_EQ(std::string(compute[0].arg_name), "inserts");
  EXPECT_GT(compute[0].arg, 0u);
}

// Drives a multi-plan (track) processor through a transition and past the
// purge point.
std::vector<TraceSpan> RunTrackTransition(ProcessorKind kind,
                                          Observability* obs) {
  int streams = 3;
  uint64_t window = 40;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(streams), OpKind::kHashJoin);
  LogicalPlan next = LogicalPlan::LeftDeep(
      WorstCaseOrder(IdentityOrder(streams)), OpKind::kHashJoin);
  ProcessorConfig config;
  config.obs = obs;
  BuiltProcessor built =
      MakeProcessor(kind, plan, WindowSpec::Uniform(streams, window), config);
  auto tuples = UniformWorkload(streams, window, 1200, /*seed=*/5);
  size_t half = tuples.size() / 4;
  for (size_t i = 0; i < half; ++i) built.processor->Push(tuples[i]);
  EXPECT_TRUE(built.processor->RequestTransition(next).ok());
  // Enough post-transition traffic for every window to turn over, so the
  // old plan is purged.
  for (size_t i = half; i < tuples.size(); ++i) built.processor->Push(tuples[i]);
  return obs->trace.Snapshot();
}

TEST(MigrationTraceTest, ParallelTrackPhaseSequence) {
  Observability obs;
  auto spans = RunTrackTransition(ProcessorKind::kParallelTrack, &obs);
  auto transition = SpansNamed(spans, "transition");
  ASSERT_EQ(transition.size(), 1u);
  ASSERT_EQ(std::string(transition[0].arg_name), "live_plans");
  EXPECT_EQ(transition[0].arg, 2u);  // old + new side by side
  // The migration stage runs periodic purge scans until the old plan can
  // be discarded; the discard must come after the last scan started.
  auto scans = SpansNamed(spans, "purge-scan");
  ASSERT_FALSE(scans.empty());
  auto discard = SpansNamed(spans, "plan-discard");
  ASSERT_EQ(discard.size(), 1u);
  for (const TraceSpan& s : scans) {
    EXPECT_GE(s.start_ns, transition[0].start_ns);
    EXPECT_LE(s.start_ns, discard[0].start_ns);
  }
  // No eager rebuild, no JIT completion: Parallel Track's whole cost is
  // duplicated processing plus these scans.
  EXPECT_FALSE(HasSpan(spans, "state-compute"));
  EXPECT_FALSE(HasSpan(spans, "jit-completion"));
}

TEST(MigrationTraceTest, HybridTrackPhaseSequence) {
  Observability obs;
  auto spans = RunTrackTransition(ProcessorKind::kHybridTrack, &obs);
  auto transition = SpansNamed(spans, "transition");
  ASSERT_EQ(transition.size(), 1u);
  // The hybrid ingredient: state matching inside the transition.
  auto copy = SpansNamed(spans, "state-copy");
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_TRUE(NestsWithin(copy[0], transition[0]));
  ASSERT_EQ(std::string(copy[0].arg_name), "states_copied");
  EXPECT_GT(copy[0].arg, 0u);  // scans at least match across any reorder
  // The worst-case reorder shares no join state: the old plan stays live
  // until purge detection retires it, as in plain Parallel Track.
  EXPECT_TRUE(HasSpan(spans, "purge-scan"));
  EXPECT_TRUE(HasSpan(spans, "plan-discard"));
}

// --- exporters -------------------------------------------------------------

TEST(TraceExportTest, ChromeTraceIsWellFormedAndSorted) {
  TraceRecorder rec(8);
  {
    TraceScope outer(&rec, "transition", "migration", /*track=*/0);
    TraceScope inner(&rec, "plan-diff", "migration", /*track=*/0);
    inner.SetArg("incomplete", 3);
  }
  std::ostringstream os;
  WriteChromeTrace(os, rec.Snapshot(), rec.dropped(), "trace_test");
  std::string json = os.str();
  // Structural spot checks (no JSON library in-repo): array form, complete
  // events, microsecond timestamps, our names and args present.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"transition\""), std::string::npos);
  EXPECT_NE(json.find("\"plan-diff\""), std::string::npos);
  EXPECT_NE(json.find("\"incomplete\":3"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  // The child recorded first but must be emitted after its parent (sorted
  // by start time).
  EXPECT_LT(json.find("\"transition\""), json.find("\"plan-diff\""));
}

TEST(TraceExportTest, ChromeTraceReportsTruncation) {
  TraceRecorder rec(2);
  for (uint64_t i = 0; i < 5; ++i) rec.Record(MakeSpan("s", i, i));
  std::ostringstream os;
  WriteChromeTrace(os, rec.Snapshot(), rec.dropped());
  EXPECT_NE(os.str().find("dropped"), std::string::npos);
  EXPECT_NE(os.str().find("3"), std::string::npos);
}

TEST(TraceExportTest, MetricsJsonCarriesCountersAndQuantiles) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Record(i);
  std::ostringstream os;
  WriteMetricsJson(os, {{"arrivals", 42}}, {{"delay_ns", &h}});
  std::string json = os.str();
  EXPECT_NE(json.find("\"arrivals\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"delay_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // The trace section is always present so dashboards can alert on span
  // loss without probing for the key.
  EXPECT_NE(json.find("\"trace\": {\"dropped\": 0}"), std::string::npos);
}

TEST(TraceExportTest, MetricsJsonReportsRingDrops) {
  TraceRecorder rec(2);
  for (uint64_t i = 0; i < 7; ++i) rec.Record(MakeSpan("s", i, i));
  std::ostringstream os;
  WriteMetricsJson(os, {{"arrivals", 1}}, {}, rec.dropped());
  EXPECT_NE(os.str().find("\"trace\": {\"dropped\": 5}"), std::string::npos)
      << os.str();
}

}  // namespace
}  // namespace jisc
