// The benchmark's own test: the output oracle agrees exactly with
// NaiveJoinReference on small inputs of every workload shape, the engine
// agrees with the oracle under a transition schedule and under sharding,
// and the seed changes the input.

#include <gtest/gtest.h>

#include <vector>

#include "core/jisc_runtime.h"
#include "core/parallel_engine.h"
#include "exec/parallel_executor.h"
#include "exec/sink.h"
#include "oracle.h"
#include "reference/naive_reference.h"
#include "workload.h"

namespace jiscperf {
namespace {

// Small versions of the four workload shapes.
WorkloadSpec Uniform() {
  WorkloadSpec s;
  s.name = "uniform";
  s.window = 24;
  s.key_domain = 24;
  s.warmup_tuples = 96;
  s.pass_tuples = 400;
  return s;
}

WorkloadSpec Zipf() {
  WorkloadSpec s = Uniform();
  s.name = "zipf";
  s.window = 12;
  s.key_domain = 240;
  s.zipf_s = 0.8;
  return s;
}

WorkloadSpec Transitions() {
  WorkloadSpec s = Uniform();
  s.name = "transitions";
  s.transition_every = 60;
  return s;
}

WorkloadSpec Sharded() {
  WorkloadSpec s = Uniform();
  s.name = "sharded";
  s.shards = 3;
  return s;
}

OutputDigest ReferenceDigest(const WorkloadSpec& spec,
                             const std::vector<jisc::BaseTuple>& input) {
  jisc::NaiveJoinReference ref(spec.streams, Windows(spec));
  OutputDigest d;
  std::vector<jisc::Tuple> outputs, retractions;
  for (const jisc::BaseTuple& t : input) {
    outputs.clear();
    retractions.clear();
    ref.Push(t, &outputs, &retractions);
    for (const jisc::Tuple& o : outputs) AddOutput(&d, CombinationHash(o));
    for (const jisc::Tuple& r : retractions) {
      AddRetraction(&d, CombinationHash(r));
    }
  }
  return d;
}

class DigestSink : public jisc::Sink {
 public:
  void OnOutput(const jisc::Tuple& t, jisc::Stamp) override {
    AddOutput(&digest, CombinationHash(t));
  }
  void OnRetract(const jisc::Tuple& t, jisc::Stamp) override {
    AddRetraction(&digest, CombinationHash(t));
  }
  OutputDigest digest;
};

// Feeds the input the way the driver does: transitions alternate the
// worst-case reversal and the initial plan inside the measured part.
OutputDigest EngineDigest(const WorkloadSpec& spec,
                          const std::vector<jisc::BaseTuple>& input) {
  DigestSink sink;
  jisc::Engine::Options options;
  options.parallelism = spec.shards;
  auto proc = jisc::MakeEngineProcessor(
      InitialPlan(spec), Windows(spec), &sink,
      [] { return jisc::MakeJiscStrategy(); }, options);
  uint64_t transitions = 0;
  for (uint64_t i = 0; i < input.size(); ++i) {
    if (i >= spec.warmup_tuples &&
        TransitionBefore(spec, i - spec.warmup_tuples)) {
      ++transitions;
      EXPECT_TRUE(proc->RequestTransition(transitions % 2 == 1
                                              ? ReversedPlan(spec)
                                              : InitialPlan(spec))
                      .ok());
    }
    proc->Push(input[i]);
  }
  if (auto* p = dynamic_cast<jisc::ParallelExecutor*>(proc.get())) {
    p->Barrier();
  }
  return sink.digest;
}

TEST(OracleTest, MatchesNaiveReferenceOnEveryShape) {
  for (const WorkloadSpec& spec : {Uniform(), Zipf()}) {
    for (uint64_t seed : {1, 2, 3}) {
      auto input = GenerateInput(spec, seed);
      OutputDigest expected = ExpectedDigest(input, spec.streams, spec.window);
      EXPECT_EQ(expected, ReferenceDigest(spec, input))
          << spec.name << " seed " << seed;
      EXPECT_GT(expected.outputs, 0u) << spec.name;
      EXPECT_GT(expected.retractions, 0u) << spec.name;
    }
  }
}

TEST(OracleTest, ZipfShapeHasHotKeys) {
  WorkloadSpec zipf = Zipf();
  WorkloadSpec flat = zipf;
  flat.zipf_s = 0;
  auto count = [](const WorkloadSpec& spec) {
    return ExpectedDigest(GenerateInput(spec, 1), spec.streams, spec.window)
        .outputs;
  };
  // Hot keys fan out; the same domain drawn uniformly barely joins.
  EXPECT_GT(count(zipf), 5 * count(flat));
}

TEST(OracleTest, EngineMatchesOracleUnderTransitionsAndSharding) {
  for (const WorkloadSpec& spec : {Uniform(), Zipf(), Transitions(), Sharded()}) {
    auto input = GenerateInput(spec, 7);
    EXPECT_EQ(EngineDigest(spec, input),
              ExpectedDigest(input, spec.streams, spec.window))
        << spec.name;
  }
}

TEST(OracleTest, DetectsAMissingOutput) {
  WorkloadSpec spec = Uniform();
  auto input = GenerateInput(spec, 1);
  OutputDigest expected = ExpectedDigest(input, spec.streams, spec.window);
  OutputDigest tampered = expected;
  tampered.output_sum -= 1;
  EXPECT_NE(expected, tampered);
  // Swapping one part's seq keeps the count but changes the digest.
  jisc::Seq a[4] = {1, 2, 3, 4};
  jisc::Seq b[4] = {1, 2, 3, 5};
  EXPECT_NE(CombinationHash(a, 4), CombinationHash(b, 4));
}

TEST(OracleTest, SeedChangesInputAndDigest) {
  for (const WorkloadSpec& spec : {Uniform(), Zipf()}) {
    auto one = GenerateInput(spec, 1);
    auto two = GenerateInput(spec, 2);
    auto again = GenerateInput(spec, 1);
    ASSERT_EQ(one.size(), two.size());
    bool differs = false;
    for (size_t i = 0; i < one.size(); ++i) {
      differs = differs || one[i].key != two[i].key ||
                one[i].stream != two[i].stream;
      EXPECT_EQ(one[i].key, again[i].key);
      EXPECT_EQ(one[i].stream, again[i].stream);
    }
    EXPECT_TRUE(differs) << spec.name;
    EXPECT_NE(ExpectedDigest(one, spec.streams, spec.window),
              ExpectedDigest(two, spec.streams, spec.window))
        << spec.name;
  }
}

TEST(OracleTest, InputIndexChangesInput) {
  WorkloadSpec spec = Zipf();
  EXPECT_NE(ExpectedDigest(GenerateInput(spec, 1, 0), spec.streams, spec.window),
            ExpectedDigest(GenerateInput(spec, 1, 1), spec.streams, spec.window));
}

TEST(OracleTest, WorkloadTableIsComplete) {
  for (const char* name : {"steady", "migrate", "hotkey", "sharded"}) {
    const WorkloadSpec* spec = FindWorkload(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_GT(spec->open_loop_rate, 0) << name;
    EXPECT_GE(spec->inputs, 1) << name;
    EXPECT_GE(spec->warmup_tuples, spec->window * spec->streams) << name;
  }
  EXPECT_EQ(FindWorkload("nope"), nullptr);
}

}  // namespace
}  // namespace jiscperf
