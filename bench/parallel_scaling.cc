// Parallel partitioned execution: throughput of the hash-sharded engine at
// 1/2/4/8 shards on a symmetric-hash-join pipeline, steady state and with a
// mid-run JISC migration. shards=1 is the plain single-threaded Engine (the
// equivalence oracle), so its row is the scaling baseline.
//
// Note: on a single-core machine the shards time-slice one CPU, so the
// sharded rows show queue/thread overhead rather than speedup; run on a
// multi-core box to see scaling.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "exec/parallel_executor.h"

namespace jisc {
namespace bench {
namespace {

constexpr int kJoins = 3;

struct ScalingConfig {
  int shards = 1;
  bool migrate = false;
};

// Pushes `n` tuples and waits until every shard has fully processed them
// (shards=1 processes synchronously inside Push), so the measured time
// covers completed work, not just enqueues.
double TimedRun(StreamProcessor* proc, SyntheticSource* src, size_t n,
                const LogicalPlan* mid_run_plan) {
  auto* parallel = dynamic_cast<ParallelExecutor*>(proc);
  WallTimer timer;
  for (size_t i = 0; i < n; ++i) {
    if (mid_run_plan != nullptr && i == n / 2) {
      Status s = proc->RequestTransition(*mid_run_plan);
      JISC_CHECK(s.ok()) << s.ToString();
    }
    proc->Push(src->Next());
  }
  if (parallel != nullptr) parallel->Barrier();
  return timer.ElapsedSeconds();
}

void RunScaling(benchmark::State& state, ScalingConfig cfg) {
  int streams = kJoins + 1;
  uint64_t window = ScaledWindow();
  auto order = Order(streams);
  LogicalPlan plan = LogicalPlan::LeftDeep(order, OpKind::kHashJoin);
  LogicalPlan next =
      LogicalPlan::LeftDeep(WorstCaseOrder(order), OpKind::kHashJoin);
  for (auto _ : state) {
    SourceConfig src_cfg;
    src_cfg.num_streams = streams;
    src_cfg.key_domain = DomainFor(window);
    src_cfg.seed = 7;
    SyntheticSource src(src_cfg);
    ProcessorConfig config;
    config.parallelism = cfg.shards;
    BuiltProcessor built = MakeProcessor(
        ProcessorKind::kJisc, plan, WindowSpec::Uniform(streams, window),
        config);
    // Warm the windows outside the timed region.
    size_t warm = static_cast<size_t>(streams) * window;
    for (size_t i = 0; i < warm; ++i) built.processor->Push(src.Next());

    size_t n = static_cast<size_t>(streams) * window * 8;
    double seconds = TimedRun(built.processor.get(), &src, n,
                              cfg.migrate ? &next : nullptr);
    state.SetIterationTime(seconds);

    // Each row reports only its own measurements; compute speedup as
    // throughput_tps(shards=N) / throughput_tps(shards=1) across rows, so
    // the numbers stay correct under --benchmark_filter, repetitions, and
    // any registration order.
    // metrics() quiesces the shards and merges their counters.
    const Metrics& m = built.processor->metrics();
    std::vector<std::pair<std::string, double>> row = {
        {"shards", static_cast<double>(cfg.shards)},
        {"tuples", static_cast<double>(n)},
        {"throughput_tps", static_cast<double>(n) / seconds},
        {"outputs", static_cast<double>(built.sink->outputs())},
        {"work_units", static_cast<double>(m.WorkUnits())},
        {"completions", static_cast<double>(m.completions)}};
    for (const auto& [name, value] : row) state.counters[name] = value;
    EmitRowJson("parallel_scaling", cfg.migrate ? "migration" : "steady",
                cfg.shards, seconds, row);
  }
}

void BM_SteadyState(benchmark::State& state) {
  RunScaling(state, {static_cast<int>(state.range(0)), false});
}
void BM_WithJiscMigration(benchmark::State& state) {
  RunScaling(state, {static_cast<int>(state.range(0)), true});
}

}  // namespace
}  // namespace bench
}  // namespace jisc

BENCHMARK(jisc::bench::BM_SteadyState)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_WithJiscMigration)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
