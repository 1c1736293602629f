// Scenario harness: JSON model, strict spec parsing, deterministic runs,
// and the baseline-diff contract behind `jiscbench compare`.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "scenario/baseline.h"
#include "scenario/bundle.h"
#include "scenario/json.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace jisc {
namespace scenario {
namespace {

// ---------------------------------------------------------------- Json --

TEST(JsonTest, ParsePreservesIntegersExactly) {
  auto j = Json::Parse("{\"a\": 9007199254740993, \"b\": 1.5, \"c\": -3}");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  const Json* a = j.value().Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->is_int());
  // 2^53 + 1 is not representable as a double; an int64 path must keep it.
  EXPECT_EQ(a->AsInt(), INT64_C(9007199254740993));
  EXPECT_EQ(j.value().Find("b")->kind(), Json::Kind::kDouble);
  EXPECT_EQ(j.value().Find("c")->AsInt(), -3);
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  auto j = Json::Parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().Dump(), "{\"z\":1,\"a\":2,\"m\":3}");
}

TEST(JsonTest, DumpParseRoundTripIsByteIdentical) {
  const std::string text =
      "{\"s\":\"he\\\"llo\\n\",\"n\":null,\"t\":true,\"arr\":[1,2.5,"
      "{\"k\":-7}],\"big\":123456789012345}";
  auto j = Json::Parse(text);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ(j.value().Dump(), text);
  auto again = Json::Parse(j.value().Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().Dump(), text);
}

TEST(JsonTest, RejectsDuplicateKeys) {
  auto j = Json::Parse("{\"a\": 1, \"a\": 2}");
  EXPECT_FALSE(j.ok());
}

TEST(JsonTest, RejectsTrailingContent) {
  EXPECT_FALSE(Json::Parse("{} extra").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
}

TEST(JsonTest, ErrorsCarryLineAndColumn) {
  auto j = Json::Parse("{\n  \"a\": 1,\n  bad\n}");
  ASSERT_FALSE(j.ok());
  EXPECT_NE(j.status().message().find("line 3"), std::string::npos)
      << j.status().ToString();
}

TEST(JsonTest, DecodesUnicodeEscapes) {
  auto j = Json::Parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().AsString(), "A\xc3\xa9");
}

// ---------------------------------------------------------------- Spec --

// A spec exercising every optional field, authored small enough that the
// runner tests below stay fast at scale 1.
Spec TestSpec() {
  Spec s;
  s.name = "unit";
  s.description = "unit-test scenario";
  s.seed = 7;
  s.streams = 3;
  s.window = 100;
  s.warmup_windows = 1;
  PhaseSpec steady;
  steady.label = "steady";
  steady.tuples = 1500;
  PhaseSpec burst;
  burst.label = "burst";
  burst.tuples = 500;
  burst.force_stream = 1;
  burst.key_domain = 40;
  s.phases = {steady, burst};
  EventSpec t1;
  t1.at = 600;
  t1.action = EventSpec::Action::kTransition;
  t1.transition = TransitionKind::kBestCase;
  s.schedule = {t1};
  s.strategy = "jisc";
  s.thresholds["wall.measured_seconds"] = 0.75;
  return s;
}

TEST(SpecTest, ParseSpecToJsonRoundTrip) {
  Spec s = TestSpec();
  Json j = SpecToJson(s);
  auto parsed = ParseSpec(j);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The inverse serialization must reproduce the document byte for byte.
  EXPECT_EQ(SpecToJson(parsed.value()).Dump(), j.Dump());
  EXPECT_EQ(parsed.value().name, "unit");
  EXPECT_EQ(parsed.value().seed, 7u);
  ASSERT_EQ(parsed.value().phases.size(), 2u);
  EXPECT_EQ(parsed.value().phases[1].force_stream, StreamId{1});
  ASSERT_EQ(parsed.value().schedule.size(), 1u);
  EXPECT_EQ(parsed.value().schedule[0].transition, TransitionKind::kBestCase);
  EXPECT_EQ(parsed.value().thresholds.at("wall.measured_seconds"), 0.75);
}

TEST(SpecTest, RejectsUnknownTopLevelKey) {
  auto s = ParseSpecText(
      "{\"name\": \"x\", \"windwo\": 100, "
      "\"phases\": [{\"tuples\": 10}]}");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.status().message().find("windwo"), std::string::npos)
      << s.status().ToString();
}

TEST(SpecTest, RejectsUnknownNestedKeys) {
  EXPECT_FALSE(ParseSpecText("{\"name\": \"x\", "
                             "\"arrival\": {\"keypattern\": \"random\"}, "
                             "\"phases\": [{\"tuples\": 10}]}")
                   .ok());
  EXPECT_FALSE(ParseSpecText("{\"name\": \"x\", "
                             "\"phases\": [{\"tuples\": 10, \"burst\": 1}]}")
                   .ok());
  EXPECT_FALSE(
      ParseSpecText("{\"name\": \"x\", \"phases\": [{\"tuples\": 10}], "
                    "\"schedule\": [{\"at\": 5, \"transition\": "
                    "\"best_case\", \"extra\": true}]}")
          .ok());
}

TEST(SpecTest, ValidatesSemantics) {
  Spec s = TestSpec();
  s.phases[0].tuples = 0;
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = TestSpec();
  s.schedule[0].at = TotalMeasuredTuples(s) + 1;
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = TestSpec();
  s.strategy = "cacq";
  s.parallelism = 4;  // eddies are single-threaded
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = TestSpec();
  s.strategy = "cacq";
  EventSpec cp;
  cp.at = 100;
  cp.action = EventSpec::Action::kCheckpointRestore;
  s.schedule.push_back(cp);  // checkpoint needs an engine strategy
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = TestSpec();
  s.strategy = "no-such-strategy";
  EXPECT_FALSE(ValidateSpec(s).ok());
}

TEST(SpecTest, ParallelismIsBounded) {
  // Each shard is a worker thread, so the shard count has a ceiling.
  // Checked through ValidateSpec alone: nothing here starts a thread.
  Spec s = TestSpec();
  s.parallelism = kMaxParallelism;
  EXPECT_TRUE(ValidateSpec(s).ok());
  s.parallelism = kMaxParallelism + 1;
  EXPECT_FALSE(ValidateSpec(s).ok());
  s.parallelism = 100000;
  EXPECT_FALSE(ValidateSpec(s).ok());
}

TEST(SpecTest, EventRequiresExactlyOneAction) {
  EXPECT_FALSE(
      ParseSpecText("{\"name\": \"x\", \"phases\": [{\"tuples\": 10}], "
                    "\"schedule\": [{\"at\": 5}]}")
          .ok());
  EXPECT_FALSE(
      ParseSpecText("{\"name\": \"x\", \"phases\": [{\"tuples\": 10}], "
                    "\"schedule\": [{\"at\": 5, \"transition\": "
                    "\"best_case\", \"checkpoint_restore\": true}]}")
          .ok());
}

// -------------------------------------------------------------- Runner --

TEST(RunnerTest, SameSeedRunsAreByteIdentical) {
  Spec s = TestSpec();
  auto a = RunScenario(s);
  auto b = RunScenario(s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(SerializeDeterministic(a.value()),
            SerializeDeterministic(b.value()));
  EXPECT_EQ(a.value().transitions, 1u);
  EXPECT_GT(a.value().measured_tuples, 0u);
}

TEST(RunnerTest, ShardedRunsAreByteIdentical) {
  Spec s = TestSpec();
  s.streams = 4;
  s.parallelism = 2;
  auto a = RunScenario(s);
  auto b = RunScenario(s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(SerializeDeterministic(a.value()),
            SerializeDeterministic(b.value()));
}

TEST(RunnerTest, SeedChangesTheDeterministicSection) {
  Spec s = TestSpec();
  s.arrival.key_pattern = KeyPattern::kRandom;
  s.arrival.key_domain = 60;
  auto a = RunScenario(s);
  RunOptions other;
  other.seed = 12345;
  auto b = RunScenario(s, other);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(SerializeDeterministic(a.value()),
            SerializeDeterministic(b.value()));
}

TEST(RunnerTest, StrategyOverrideIsRecorded) {
  Spec s = TestSpec();
  RunOptions opts;
  opts.strategy = "moving-state";
  auto r = RunScenario(s, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().strategy, "moving-state");
}

TEST(RunnerTest, InvalidOverrideIsRejected) {
  Spec s = TestSpec();
  RunOptions opts;
  opts.strategy = "cacq";
  opts.parallelism = 4;  // valid spec, invalid combination
  EXPECT_FALSE(RunScenario(s, opts).ok());
}

TEST(SpecTest, TelemetryAndFaultRoundTrip) {
  Spec s = TestSpec();
  s.streams = 4;
  s.parallelism = 4;
  s.telemetry.enabled = true;
  s.telemetry.period_ms = 5;
  s.telemetry.watchdog_samples = 4;
  s.telemetry.expect_straggler_shard = 2;
  s.fault.straggler_shard = 2;
  s.fault.stall_ms = 30;
  s.fault.stall_every = 2000;
  Json j = SpecToJson(s);
  auto parsed = ParseSpec(j);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SpecToJson(parsed.value()).Dump(), j.Dump());
  EXPECT_TRUE(parsed.value().telemetry.enabled);
  EXPECT_EQ(parsed.value().telemetry.period_ms, 5u);
  EXPECT_EQ(parsed.value().telemetry.watchdog_samples, 4);
  ASSERT_TRUE(parsed.value().telemetry.expect_straggler_shard.has_value());
  EXPECT_EQ(*parsed.value().telemetry.expect_straggler_shard, 2);
  EXPECT_EQ(parsed.value().fault.straggler_shard, 2);
  EXPECT_EQ(parsed.value().fault.stall_ms, 30u);
  EXPECT_EQ(parsed.value().fault.stall_every, 2000u);
  // Defaulted sections stay out of the document entirely.
  EXPECT_EQ(SpecToJson(TestSpec()).Dump().find("telemetry"),
            std::string::npos);
  EXPECT_EQ(SpecToJson(TestSpec()).Dump().find("fault"), std::string::npos);
}

TEST(SpecTest, ValidatesTelemetryAndFaultSemantics) {
  auto valid = [] {
    Spec s = TestSpec();
    s.streams = 4;
    s.parallelism = 4;
    return s;
  };

  Spec s = valid();
  s.telemetry.enabled = true;
  s.telemetry.watchdog_samples = 1;  // needs >= 2 to difference progress
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = valid();
  s.telemetry.expect_no_stragglers = true;  // expectation without telemetry
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = valid();
  s.telemetry.enabled = true;
  s.telemetry.expect_no_stragglers = true;
  s.telemetry.expect_straggler_shard = 1;  // mutually exclusive
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = valid();
  s.telemetry.enabled = true;
  s.telemetry.expect_straggler_shard = 4;  // out of [0, parallelism)
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = valid();
  s.parallelism = 1;
  s.fault.straggler_shard = 0;  // needs a sharded run
  s.fault.stall_ms = 10;
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = valid();
  s.fault.straggler_shard = 2;  // delay without a duration
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = valid();
  s.fault.stall_ms = 10;  // duration without a target shard
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = valid();
  s.fault.straggler_shard = 2;
  s.fault.stall_ms = 10;
  EXPECT_TRUE(ValidateSpec(s).ok());
}

TEST(SpecTest, DropEveryRoundTripAndValidation) {
  Spec s = TestSpec();
  s.fault.drop_every = 5;
  Json j = SpecToJson(s);
  auto parsed = ParseSpec(j);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().fault.drop_every, 5u);
  EXPECT_EQ(SpecToJson(parsed.value()).Dump(), j.Dump());
  // Orthogonal to the straggler fields: the emitted fault section carries
  // only the drop knob, and the spec is valid at parallelism 1.
  EXPECT_EQ(j.Dump().find("straggler_shard"), std::string::npos);
  EXPECT_TRUE(ValidateSpec(s).ok());
  // drop_every == 1 would drop every measured arrival.
  s.fault.drop_every = 1;
  EXPECT_FALSE(ValidateSpec(s).ok());
}

TEST(SpecTest, IngressAndNewFaultsRoundTrip) {
  Spec s = TestSpec();
  s.fault.duplicate_every = 6;
  s.fault.reorder_window = 32;
  s.fault.drop_burst = 50;
  s.fault.drop_burst_at = 900;
  s.ingress.enabled = true;
  s.ingress.dedup_window = 256;
  s.ingress.reorder_window = 64;
  s.ingress.overflow = "drop_late";
  Json j = SpecToJson(s);
  auto parsed = ParseSpec(j);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SpecToJson(parsed.value()).Dump(), j.Dump());
  EXPECT_EQ(parsed.value().fault.duplicate_every, 6u);
  EXPECT_EQ(parsed.value().fault.reorder_window, 32u);
  EXPECT_EQ(parsed.value().fault.drop_burst, 50u);
  EXPECT_EQ(parsed.value().fault.drop_burst_at, 900u);
  EXPECT_TRUE(parsed.value().ingress.enabled);
  EXPECT_EQ(parsed.value().ingress.dedup_window, 256u);
  EXPECT_EQ(parsed.value().ingress.reorder_window, 64u);
  EXPECT_EQ(parsed.value().ingress.overflow, "drop_late");
  // A default spec keeps both sections out of the document.
  EXPECT_EQ(SpecToJson(TestSpec()).Dump().find("ingress"),
            std::string::npos);
}

TEST(SpecTest, MigrationAndExpectRoundTrip) {
  Spec s = TestSpec();
  s.migration.mode = "fluid";
  s.migration.batch_keys = 7;
  s.migration.delay_budget_us = 250;
  s.expect.output_delay_p99_us = 2000;
  Json j = SpecToJson(s);
  auto parsed = ParseSpec(j);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SpecToJson(parsed.value()).Dump(), j.Dump());
  EXPECT_EQ(parsed.value().migration.mode, "fluid");
  EXPECT_EQ(parsed.value().migration.batch_keys, 7u);
  EXPECT_EQ(parsed.value().migration.delay_budget_us, 250u);
  ASSERT_TRUE(parsed.value().expect.output_delay_p99_us.has_value());
  EXPECT_EQ(*parsed.value().expect.output_delay_p99_us, 2000u);
  // The engine-level options the runner derives from the block.
  FluidOptions fluid = ToProcessorConfig(parsed.value()).fluid;
  EXPECT_TRUE(fluid.IsFluid());
  EXPECT_EQ(fluid.batch_keys, 7u);
  EXPECT_EQ(fluid.delay_budget_us, 250u);
  // All-default specs keep both sections out of the document.
  EXPECT_EQ(SpecToJson(TestSpec()).Dump().find("migration"),
            std::string::npos);
  EXPECT_EQ(SpecToJson(TestSpec()).Dump().find("expect"),
            std::string::npos);
  EXPECT_FALSE(ToProcessorConfig(TestSpec()).fluid.IsFluid());
}

TEST(SpecTest, RejectsUnknownMigrationKeys) {
  EXPECT_FALSE(
      ParseSpecText("{\"name\": \"x\", \"phases\": [{\"tuples\": 10}], "
                    "\"migration\": {\"mode\": \"fluid\", "
                    "\"batchkeys\": 8}}")
          .ok());
  EXPECT_FALSE(
      ParseSpecText("{\"name\": \"x\", \"phases\": [{\"tuples\": 10}], "
                    "\"expect\": {\"output_delay_p99\": 100}}")
          .ok());
}

TEST(SpecTest, ValidatesMigrationAndExpectSemantics) {
  Spec s = TestSpec();
  s.migration.mode = "gradual";  // not a mode
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = TestSpec();
  s.migration.mode = "fluid";
  EXPECT_TRUE(ValidateSpec(s).ok());  // default strategy (jisc) migrates

  s = TestSpec();
  s.migration.mode = "fluid";
  s.strategy = "cacq";  // eddies have no migration stage to pace
  s.schedule.clear();   // (transition schedule is jisc-specific in TestSpec)
  auto status = ValidateSpec(s);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cacq"), std::string::npos)
      << status.ToString();

  s = TestSpec();
  s.expect.output_delay_p99_us = 0;  // a zero ceiling gates nothing
  EXPECT_FALSE(ValidateSpec(s).ok());
}

TEST(SpecTest, TimeWindowModeRoundTrip) {
  Spec s = TestSpec();
  s.window_mode = "time";
  s.arrival.ts_stride = 4;
  Json j = SpecToJson(s);
  auto parsed = ParseSpec(j);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SpecToJson(parsed.value()).Dump(), j.Dump());
  EXPECT_EQ(parsed.value().window_mode, "time");
  EXPECT_EQ(parsed.value().arrival.ts_stride, 4u);
  // Count mode (the default) stays out of the document.
  EXPECT_EQ(SpecToJson(TestSpec()).Dump().find("window_mode"),
            std::string::npos);
}

TEST(SpecTest, ValidatesIngressAndFaultSemantics) {
  Spec s = TestSpec();
  s.fault.duplicate_every = 1;  // would duplicate every arrival
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = TestSpec();
  s.fault.drop_burst_at = 100;  // offset without a burst length
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = TestSpec();
  s.fault.drop_burst = 10;
  s.fault.drop_burst_at = 2000;  // at/past the end of the measured run
  EXPECT_FALSE(ValidateSpec(s).ok());
  s.fault.drop_burst_at = 1999;
  EXPECT_TRUE(ValidateSpec(s).ok());

  s = TestSpec();
  s.ingress.enabled = true;
  s.ingress.overflow = "panic";  // not a policy
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = TestSpec();
  s.ingress.enabled = true;
  s.ingress.dedup_window = 0;  // a zero buffer cannot dedup
  EXPECT_FALSE(ValidateSpec(s).ok());

  s = TestSpec();
  s.ingress.enabled = true;
  s.ingress.anomaly_threshold = 5;  // watchdog needs telemetry on
  EXPECT_FALSE(ValidateSpec(s).ok());
  s.telemetry.enabled = true;
  EXPECT_TRUE(ValidateSpec(s).ok());

  s = TestSpec();
  s.arrival.ts_stride = 4;  // stride is meaningless for count windows
  EXPECT_FALSE(ValidateSpec(s).ok());
  s.window_mode = "time";
  EXPECT_TRUE(ValidateSpec(s).ok());

  s = TestSpec();
  s.window_mode = "sliding";  // not a mode
  EXPECT_FALSE(ValidateSpec(s).ok());
}

TEST(RunnerTest, FluidRunsAreByteIdenticalAndPassTheExpectGate) {
  Spec s = TestSpec();
  s.migration.mode = "fluid";
  s.migration.batch_keys = 4;
  s.migration.delay_budget_us = 10;
  // Generous ceiling: the gate exists to catch pathological stalls, and
  // the runner floors it anyway; what this test locks in is that the
  // fluid path evaluates the expect block without tripping on a healthy
  // run, and that fluid pacing is deterministic end to end.
  s.expect.output_delay_p99_us = 500000;
  auto a = RunScenario(s);
  auto b = RunScenario(s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(SerializeDeterministic(a.value()),
            SerializeDeterministic(b.value()));
  EXPECT_EQ(a.value().transitions, 1u);
  EXPECT_GT(a.value().measured_tuples, 0u);
}

TEST(RunnerTest, TimeWindowRunsAreByteIdentical) {
  Spec s = TestSpec();
  s.window_mode = "time";
  s.arrival.ts_stride = 4;
  auto a = RunScenario(s);
  auto b = RunScenario(s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(SerializeDeterministic(a.value()),
            SerializeDeterministic(b.value()));
  EXPECT_EQ(a.value().transitions, 1u);
  // Widening the stride changes expiry timing, hence the work done.
  Spec wider = s;
  wider.arrival.ts_stride = 8;
  auto c = RunScenario(wider);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(SerializeDeterministic(a.value()),
            SerializeDeterministic(c.value()));
}

TEST(RunnerTest, DuplicateAndReorderFaultsAreSeedStable) {
  Spec s = TestSpec();
  s.schedule.clear();
  s.strategy = "cacq";  // eddy windows absorb out-of-order feeds
  s.fault.duplicate_every = 5;
  s.fault.reorder_window = 16;
  auto a = RunScenario(s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  // 2000 measured arrivals: every 5th re-delivered.
  EXPECT_EQ(a.value().duplicated_arrivals, 400u);
  EXPECT_GT(a.value().reordered_arrivals, 0u);
  auto b = RunScenario(s);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(SerializeDeterministic(a.value()),
            SerializeDeterministic(b.value()));
  // A different seed shuffles differently.
  Spec other = s;
  other.seed = 43;
  auto c = RunScenario(other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value().reordered_arrivals, c.value().reordered_arrivals);
}

TEST(RunnerTest, DropBurstComposesWithDropEvery) {
  Spec s = TestSpec();
  s.schedule.clear();
  s.fault.drop_every = 4;
  s.fault.drop_burst = 100;
  s.fault.drop_burst_at = 500;
  auto r = RunScenario(s);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 500 periodic drops; the burst spans [500, 600), 25 of which coincide
  // with a periodic drop, so the burst adds 75 unique drops.
  EXPECT_EQ(r.value().dropped_arrivals, 575u);
  auto again = RunScenario(s);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(SerializeDeterministic(r.value()),
            SerializeDeterministic(again.value()));
}

// The tentpole recovery property: under duplicate + reorder corruption the
// guard restores the exact clean-run deterministic counters, at every
// processor kind and at 4-shard parallelism.
TEST(RunnerTest, GuardRestoresCleanCountersAtEveryKind) {
  const char* kKinds[] = {"jisc",        "jisc-first-receipt",
                          "moving-state", "parallel-track",
                          "hybrid-track", "cacq",
                          "mjoin",        "stairs-eager",
                          "stairs-jisc",  "pipeline-shj"};
  for (const char* kind : kKinds) {
    Spec clean = TestSpec();
    clean.schedule.clear();
    clean.strategy = kind;
    auto base = RunScenario(clean);
    ASSERT_TRUE(base.ok()) << kind << ": " << base.status().ToString();

    Spec faulted = clean;
    faulted.fault.duplicate_every = 5;
    faulted.fault.reorder_window = 16;
    faulted.ingress.enabled = true;
    faulted.ingress.dedup_window = 256;
    faulted.ingress.reorder_window = 64;
    auto guarded = RunScenario(faulted);
    ASSERT_TRUE(guarded.ok()) << kind << ": " << guarded.status().ToString();
    EXPECT_EQ(guarded.value().counters, base.value().counters)
        << "guard failed to restore the clean feed for " << kind;
    EXPECT_EQ(guarded.value().duplicates_suppressed,
              guarded.value().duplicated_arrivals)
        << kind;
    EXPECT_EQ(guarded.value().late_admitted, 0u) << kind;
    EXPECT_EQ(guarded.value().late_dropped, 0u) << kind;
  }
  // The same property across the sharded coordinator (guard wraps the
  // whole ParallelExecutor, so shards see a clean ordered feed).
  Spec clean = TestSpec();
  clean.schedule.clear();
  clean.streams = 4;
  clean.parallelism = 4;
  auto base = RunScenario(clean);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  Spec faulted = clean;
  faulted.fault.duplicate_every = 5;
  faulted.fault.reorder_window = 16;
  faulted.ingress.enabled = true;
  auto guarded = RunScenario(faulted);
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  EXPECT_EQ(guarded.value().counters, base.value().counters)
      << "guard failed to restore the clean feed at parallelism 4";
}

TEST(RunnerTest, GuardedCheckpointRestoreContinuesTheRun) {
  // S16 checkpoint/restore mid-run with the guard enabled and faults
  // active: the guarded checkpoint carries the guard state, so the run
  // continues as if uninterrupted.
  Spec s = TestSpec();
  s.fault.duplicate_every = 5;
  s.fault.reorder_window = 16;
  s.ingress.enabled = true;
  s.schedule.clear();
  EventSpec cp;
  cp.at = 1200;
  cp.action = EventSpec::Action::kCheckpointRestore;
  s.schedule = {cp};
  auto with_cp = RunScenario(s);
  ASSERT_TRUE(with_cp.ok()) << with_cp.status().ToString();
  EXPECT_EQ(with_cp.value().checkpoint_restores, 1u);
  s.schedule.clear();
  auto without = RunScenario(s);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with_cp.value().counters, without.value().counters);
  EXPECT_EQ(with_cp.value().duplicates_suppressed,
            without.value().duplicates_suppressed);
}

TEST(RunnerTest, TelemetryDoesNotPerturbTheDeterministicSection) {
  Spec s = TestSpec();
  s.streams = 4;
  s.parallelism = 2;
  auto off = RunScenario(s);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  RunOptions with_telemetry;
  with_telemetry.telemetry_period_ms = 1;
  auto on = RunScenario(s, with_telemetry);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  // The sampled series is wall-clock noise by construction; the
  // deterministic sections must stay byte-identical with sampling live.
  EXPECT_EQ(SerializeDeterministic(off.value()),
            SerializeDeterministic(on.value()));
  EXPECT_FALSE(off.value().telemetry.enabled);
  EXPECT_TRUE(on.value().telemetry.enabled);
  EXPECT_GE(on.value().telemetry.samples, 1u);
  EXPECT_GE(on.value().telemetry.series.size(), 1u);

  // The bundle carries the telemetry summary and it survives a parse.
  Json j = RunResultToJson(on.value());
  auto back = RunResultFromJson(j);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value().telemetry.enabled);
  EXPECT_EQ(back.value().telemetry.samples, on.value().telemetry.samples);
  EXPECT_EQ(RunResultToJson(off.value()).Dump().find("telemetry"),
            std::string::npos);
}

TEST(RunnerTest, WatchdogFlagsExactlyTheDelayedShard) {
  // Fault injection delays shard 2 (30ms stalls every 2000 events) against
  // siblings kept busy by a long random-key phase; the spec's expectation
  // makes RunScenario itself fail unless the watchdog flags shard 2 and
  // only shard 2.
  Spec s;
  s.name = "straggler-inject";
  s.seed = 42;
  s.streams = 4;
  s.window = 10000;
  s.arrival.key_pattern = KeyPattern::kRandom;
  PhaseSpec load;
  load.tuples = 2000000;
  s.phases = {load};
  s.strategy = "jisc";
  s.parallelism = 4;
  s.telemetry.enabled = true;
  s.telemetry.period_ms = 5;
  s.telemetry.watchdog_samples = 4;
  s.telemetry.expect_straggler_shard = 2;
  s.fault.straggler_shard = 2;
  s.fault.stall_ms = 30;
  s.fault.stall_every = 2000;
  RunOptions opts;
  opts.scale = 0.02;
  auto r = RunScenario(s, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<uint64_t>& flags = r.value().telemetry.straggler_flags;
  ASSERT_GE(flags.size(), 4u);
  EXPECT_GT(flags[3], 0u);  // shard 2 records on track 3
  for (size_t t = 0; t < flags.size(); ++t) {
    if (t != 3) {
      EXPECT_EQ(flags[t], 0u) << "spurious flag on track " << t;
    }
  }
}

TEST(RunnerTest, HealthySymmetricRunRaisesNoStragglers) {
  Spec s = TestSpec();
  s.streams = 4;
  s.parallelism = 2;
  s.telemetry.enabled = true;
  s.telemetry.period_ms = 2;
  s.telemetry.expect_no_stragglers = true;
  auto r = RunScenario(s);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (uint64_t f : r.value().telemetry.straggler_flags) EXPECT_EQ(f, 0u);
}

TEST(RunnerTest, DropEveryThinsTheMeasuredStreamDeterministically) {
  Spec s = TestSpec();
  s.fault.drop_every = 4;
  auto dropped = RunScenario(s);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  // 2000 attempted arrivals at scale 1; every 4th is consumed unpushed.
  EXPECT_EQ(dropped.value().measured_tuples, 2000u);
  EXPECT_EQ(dropped.value().dropped_arrivals, 500u);
  // Repeat runs of the same spec stay byte-identical.
  auto again = RunScenario(s);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(SerializeDeterministic(dropped.value()),
            SerializeDeterministic(again.value()));
  // ...and genuinely differ from the clean run (work counters shrink).
  auto clean = RunScenario(TestSpec());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean.value().dropped_arrivals, 0u);
  EXPECT_NE(SerializeDeterministic(dropped.value()),
            SerializeDeterministic(clean.value()));
}

TEST(RunnerTest, CheckpointRestoreContinuesTheRun) {
  // Every engine kind, plus fluid JISC checkpointed mid-drain: the restored
  // engine is rebuilt from the run's own config and kind, so the run
  // continues exactly, through a second transition after the restore.
  for (const auto& [strategy, mode] :
       std::vector<std::pair<std::string, std::string>>{
           {"jisc", "all_at_once"},
           {"jisc-first-receipt", "all_at_once"},
           {"moving-state", "all_at_once"},
           {"pipeline-shj", "all_at_once"},
           {"jisc", "fluid"}}) {
    SCOPED_TRACE(strategy + " " + mode);
    Spec s = TestSpec();
    s.strategy = strategy;
    s.migration.mode = mode;
    s.migration.batch_keys = 1;
    EventSpec t1;
    t1.at = 400;
    t1.transition = TransitionKind::kBestCase;
    // All at once: several window turnovers after the transition. Fluid,
    // one key per batch: mid-drain.
    EventSpec cp;
    cp.at = mode == "fluid" ? 410 : 1200;
    cp.action = EventSpec::Action::kCheckpointRestore;
    EventSpec t2;
    t2.at = 1500;
    t2.transition = TransitionKind::kInitial;
    s.schedule = {t1, cp, t2};
    auto with_cp = RunScenario(s);
    ASSERT_TRUE(with_cp.ok()) << with_cp.status().ToString();
    EXPECT_EQ(with_cp.value().checkpoint_restores, 1u);
    EXPECT_EQ(with_cp.value().transitions, 2u);

    // Restore is behaviour-preserving, so the work-unit counters must
    // match the uninterrupted run of the same scenario.
    s.schedule = {t1, t2};
    auto without = RunScenario(s);
    ASSERT_TRUE(without.ok());
    EXPECT_EQ(with_cp.value().counters, without.value().counters);
  }
}

TEST(RunnerTest, ScaleHelpers) {
  EXPECT_EQ(ScaleCount(10000, 0.02), 200u);
  EXPECT_EQ(ScaleCount(10, 0.02), 1u);     // never rounds to zero
  EXPECT_EQ(ScaleWindow(10000, 0.02), 200u);
  EXPECT_EQ(ScaleWindow(100, 0.02), 50u);  // window floor
}

// -------------------------------------------------------- Bundle / diff --

TEST(BundleTest, RunResultRoundTripsThroughJson) {
  auto r = RunScenario(TestSpec());
  ASSERT_TRUE(r.ok());
  auto back = RunResultFromJson(RunResultToJson(r.value()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeDeterministic(back.value()),
            SerializeDeterministic(r.value()));
  EXPECT_EQ(back.value().thresholds, r.value().thresholds);
}

TEST(BundleTest, IngressShapeFieldsRoundTripAndDefaultToZero) {
  auto r = RunScenario(TestSpec());
  ASSERT_TRUE(r.ok());
  RunResult faulted = r.value();
  faulted.duplicated_arrivals = 400;
  faulted.reordered_arrivals = 1234;
  faulted.duplicates_suppressed = 400;
  faulted.reorder_restored = 1100;
  faulted.late_admitted = 3;
  faulted.late_dropped = 1;
  auto back = RunResultFromJson(RunResultToJson(faulted));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().duplicated_arrivals, 400u);
  EXPECT_EQ(back.value().reordered_arrivals, 1234u);
  EXPECT_EQ(back.value().duplicates_suppressed, 400u);
  EXPECT_EQ(back.value().reorder_restored, 1100u);
  EXPECT_EQ(back.value().late_admitted, 3u);
  EXPECT_EQ(back.value().late_dropped, 1u);
  // A pre-guard bundle (fields absent) parses with all of them zero, so
  // old committed baselines stay comparable.
  auto is_new_field = [](const std::string& key) {
    return key == "duplicated_arrivals" || key == "reordered_arrivals" ||
           key == "duplicates_suppressed" || key == "reorder_restored" ||
           key == "late_admitted" || key == "late_dropped";
  };
  Json full = RunResultToJson(r.value());
  Json old = Json::Object();
  for (const auto& [key, value] : full.members()) {
    if (key != "shape") {
      old.Set(key, value);
      continue;
    }
    Json shape = Json::Object();
    for (const auto& [sk, sv] : value.members()) {
      if (!is_new_field(sk)) shape.Set(sk, sv);
    }
    old.Set("shape", std::move(shape));
  }
  auto parsed = RunResultFromJson(old);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().duplicated_arrivals, 0u);
  EXPECT_EQ(parsed.value().late_dropped, 0u);
}

TEST(CompareTest, IngressCounterDriftIsExactMatched) {
  auto base = RunScenario(TestSpec());
  ASSERT_TRUE(base.ok());
  RunResult drifted = base.value();
  drifted.duplicates_suppressed += 1;
  DiffResult diff = CompareRuns(base.value(), drifted);
  EXPECT_EQ(diff.exit_code(), kExitRegression);
  ASSERT_EQ(diff.failures.size(), 1u);
  EXPECT_EQ(diff.failures[0], "shape.duplicates_suppressed");
}

TEST(BundleTest, RejectsUnknownBundleVersion) {
  auto r = RunScenario(TestSpec());
  ASSERT_TRUE(r.ok());
  Json j = RunResultToJson(r.value());
  j.Set("bundle_version", kBundleVersion + 1);
  EXPECT_FALSE(RunResultFromJson(j).ok());
}

TEST(CompareTest, IdenticalRunsPass) {
  auto a = RunScenario(TestSpec());
  auto b = RunScenario(TestSpec());
  ASSERT_TRUE(a.ok() && b.ok());
  DiffResult diff = CompareRuns(a.value(), b.value());
  EXPECT_TRUE(diff.pass()) << DiffToTable(diff);
  EXPECT_EQ(diff.exit_code(), kExitPass);
}

TEST(CompareTest, InjectedWorkUnitRegressionFails) {
  auto base = RunScenario(TestSpec());
  ASSERT_TRUE(base.ok());
  RunResult regressed = base.value();
  for (auto& [name, value] : regressed.counters) {
    if (name == "work_units") value += value / 10;  // +10%
  }
  DiffResult diff = CompareRuns(base.value(), regressed);
  EXPECT_EQ(diff.exit_code(), kExitRegression);
  ASSERT_EQ(diff.failures.size(), 1u);
  EXPECT_EQ(diff.failures[0], "counters.work_units");
  // The offending metric is named in diff.json.
  std::string json = DiffToJson(diff).Dump();
  EXPECT_NE(json.find("counters.work_units"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"regression\""), std::string::npos);
}

TEST(CompareTest, CounterImprovementAlsoFails) {
  // Exact-match means drift in either direction forces a re-capture.
  auto base = RunScenario(TestSpec());
  ASSERT_TRUE(base.ok());
  RunResult improved = base.value();
  for (auto& [name, value] : improved.counters) {
    if (name == "work_units") value -= value / 10;
  }
  EXPECT_EQ(CompareRuns(base.value(), improved).exit_code(),
            kExitRegression);
}

TEST(CompareTest, IdentityMismatchIsSpecError) {
  auto a = RunScenario(TestSpec());
  ASSERT_TRUE(a.ok());
  RunResult other = a.value();
  other.strategy = "moving-state";
  DiffResult diff = CompareRuns(a.value(), other);
  EXPECT_EQ(diff.exit_code(), kExitSpecError);

  other = a.value();
  other.scale = 0.5;
  EXPECT_EQ(CompareRuns(a.value(), other).exit_code(), kExitSpecError);
}

// The wall-clock tests pin measured_seconds on both sides: the real value
// depends on machine load, and a delta derived from it can straddle a
// threshold or the absolute floor.
TEST(CompareTest, WallClockNoiseBelowFloorPasses) {
  auto a = RunScenario(TestSpec());
  ASSERT_TRUE(a.ok());
  RunResult base = a.value();
  base.measured_seconds = 0.004;
  RunResult b = base;
  b.measured_seconds = 0.04;  // +900% relative, but under the 50ms floor
  DiffResult diff = CompareRuns(base, b);
  EXPECT_TRUE(diff.pass()) << DiffToTable(diff);
}

TEST(CompareTest, SpecThresholdOverridesDefault) {
  auto a = RunScenario(TestSpec());
  ASSERT_TRUE(a.ok());
  RunResult base = a.value();
  base.measured_seconds = 1.0;
  RunResult b = base;
  b.measured_seconds = 3.0;                      // way past the 50% default
  b.thresholds["wall.measured_seconds"] = 5.0;   // ...but allowed
  EXPECT_TRUE(CompareRuns(base, b).pass());
  b.thresholds.erase("wall.measured_seconds");
  EXPECT_FALSE(CompareRuns(base, b).pass());
}

}  // namespace
}  // namespace scenario
}  // namespace jisc
