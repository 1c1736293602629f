// Figure 10: output latency caused by a plan transition, versus window
// size. (a) a QEP of (symmetric hash) equi-joins; (b) a QEP of
// nested-loops theta joins. JISC vs the Moving State Strategy.
//
// Expected shape (paper): JISC latency is negligible and flat; Moving State
// grows with the window — moderately for hash joins, dramatically
// (quadratically) for nested-loops joins, which is why it is unusable for
// frequent transitions on theta queries.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/engine.h"

namespace jisc {
namespace bench {
namespace {

constexpr int kStreams = 5;  // 4 joins

void RunLatency(benchmark::State& state, ProcessorKind kind, OpKind join) {
  uint64_t window = static_cast<uint64_t>(state.range(0));
  auto order = Order(kStreams);
  LogicalPlan plan = LogicalPlan::LeftDeep(order, join);
  LogicalPlan next = LogicalPlan::LeftDeep(WorstCaseOrder(order), join);
  for (auto _ : state) {
    SourceConfig cfg;
    cfg.num_streams = kStreams;
    cfg.key_domain = DomainFor(window);
    cfg.key_pattern = KeyPattern::kBottomFanout;
    cfg.fanout_streams = {0, static_cast<StreamId>(cfg.num_streams - 1)};
    cfg.seed = 7;
    SyntheticSource src(cfg);
    // Per-output delay histograms + migration-phase spans: this is the
    // bench the paper's Fig. 10 output-delay claims rest on, so it carries
    // the full observability bundle and exports the trace (JISC_OBS_DIR).
    Observability obs;
    ProcessorConfig config;
    config.obs = &obs;
    BuiltProcessor built = MakeProcessor(
        kind, plan, WindowSpec::Uniform(kStreams, window), config);
    WarmUp(built.processor.get(), &src, kStreams, window);
    // The steady-state warm-up delays would drown the migration-stage tail.
    obs.output_delay_ns.Reset();
    LatencyResult r = MeasureTransitionLatency(
        built.processor.get(), built.sink.get(), next, &src,
        /*max_tuples=*/window * kStreams);
    state.SetIterationTime(r.first_output_seconds);
    std::vector<std::pair<std::string, double>> row = {
        {"migration_ms", r.migration_seconds * 1e3},
        {"first_output_ms", r.first_output_seconds * 1e3},
        {"tuples_until_output",
         static_cast<double>(r.tuples_until_output)},
        {"delay_p50_us",
         static_cast<double>(obs.output_delay_ns.P50()) / 1e3},
        {"delay_p90_us",
         static_cast<double>(obs.output_delay_ns.P90()) / 1e3},
        {"delay_p99_us",
         static_cast<double>(obs.output_delay_ns.P99()) / 1e3},
        {"delay_max_us",
         static_cast<double>(obs.output_delay_ns.max()) / 1e3}};
    for (const auto& [name, value] : row) state.counters[name] = value;
    std::string series = std::string(ProcessorKindName(kind)) + "_" +
                         (join == OpKind::kHashJoin ? "hash" : "nlj");
    EmitRowJson("fig10", series, static_cast<int64_t>(window),
                r.first_output_seconds, row);
    ExportObservability("fig10_" + series + "_w" + std::to_string(window),
                        obs, &built.processor->metrics());
  }
}

// --- fluid migration contrast (BENCH_fluid.json) ---
//
// Queue-adjusted output delay on the worst-case hash shape: arrivals are
// scheduled on a fixed-rate ingest clock (stride calibrated on the
// post-transition plan with 3x headroom), and each event's delay is
// measured against its SCHEDULED arrival, not its actual admission. Both
// series run the IDENTICAL completion machinery — the all-at-once series
// drains the entire carryover backlog in one unbounded batch at the first
// post-transition event (the classic halt), the fluid series paces the
// same batches under the delay budget — so the total work is equal by
// construction and the delta below is purely scheduling. An all-at-once
// halt delays every event queued behind it — the latency a caller
// actually observes — while fluid pacing keeps the drain inside the spare
// ingest capacity and the p99 stays near the steady-state line. This is
// the repo's Fig. 10 "fluid flat-line vs all-at-once spike" evidence; the
// oracle battery in tests/fluid_migration_test.cc proves the two modes
// compute identical results, and BM_HashJoins_MovingState above covers
// the native bulk-copy baseline's own migration stall.
void RunFluidContrast(benchmark::State& state, ProcessorKind kind,
                      bool fluid_mode) {
  uint64_t window = static_cast<uint64_t>(state.range(0));
  auto order = Order(kStreams);
  LogicalPlan plan = LogicalPlan::LeftDeep(order, OpKind::kHashJoin);
  LogicalPlan next =
      LogicalPlan::LeftDeep(WorstCaseOrder(order), OpKind::kHashJoin);
  for (auto _ : state) {
    SourceConfig cfg;
    cfg.num_streams = kStreams;
    cfg.key_domain = DomainFor(window);
    cfg.key_pattern = KeyPattern::kBottomFanout;
    cfg.fanout_streams = {0, static_cast<StreamId>(cfg.num_streams - 1)};
    cfg.seed = 7;
    // Fluid: one key every 8th event — per-key completion costs a few
    // microseconds on this shape, so amortized drain stays inside the
    // spare ingest capacity and the queue never accumulates (the
    // flat-line). All-at-once: the same scheduler with an effectively
    // unbounded batch, i.e. the whole backlog drains in the first
    // post-transition batch (the halt). The scenario pack uses denser
    // fluid batches; this bench picks the latency-optimal corner of the
    // same knob space.
    ProcessorConfig config;
    FluidOptions& fluid = config.fluid;
    fluid.mode = FluidOptions::Mode::kFluid;
    if (fluid_mode) {
      fluid.batch_keys = 1;
      fluid.delay_budget_us = 50;
      fluid.batch_period = 8;
    } else {
      fluid.batch_keys = 1000000000;
      fluid.delay_budget_us = 1000000000;
      fluid.batch_period = 1;
    }
    // Calibrate the ingest stride on the POST-transition plan: the drain
    // runs on the worst-case order, so the clock must be sustainable there
    // (3x headroom) or sustained overload — not the transition — would
    // dominate the tail for every mode. The measured stage is 2x the
    // window sweep so the paced drain (batch_period * key_domain events)
    // finishes inside it.
    size_t measured = 2 * window * kStreams;
    SourceConfig calib_cfg = cfg;
    SyntheticSource calib_src(calib_cfg);
    BuiltProcessor calib = MakeProcessor(
        kind, next, WindowSpec::Uniform(kStreams, window), config);
    WarmUp(calib.processor.get(), &calib_src, kStreams, window);
    WallTimer calib_timer;
    for (size_t i = 0; i < measured; ++i) {
      calib.processor->Push(calib_src.Next());
    }
    uint64_t stride_ns = static_cast<uint64_t>(
        calib_timer.ElapsedNanos() * 3.0 / measured);
    if (stride_ns == 0) stride_ns = 1;

    // Measured stage, best of 3 trials by p99: a single OS preemption
    // poisons a queue-adjusted tail for thousands of events, so the
    // least-perturbed trial is the signal — the genuine all-at-once drain
    // is deterministic work and survives the min, scheduler noise does
    // not. The transition stall lands between t0 and the first scheduled
    // arrival, so every queued event inherits it.
    constexpr int kTrials = 3;
    Histogram best;
    double best_seconds = 0;
    uint64_t backlog_end = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      SyntheticSource trial_src(cfg);
      BuiltProcessor built = MakeProcessor(
          kind, plan, WindowSpec::Uniform(kStreams, window), config);
      WarmUp(built.processor.get(), &trial_src, kStreams, window);
      Histogram delay_ns;
      WallTimer ingest;
      benchmark::DoNotOptimize(
          built.processor->RequestTransition(next).ok());
      for (size_t i = 0; i < measured; ++i) {
        built.processor->Push(trial_src.Next());
        uint64_t scheduled = (i + 1) * stride_ns;
        uint64_t now = ingest.ElapsedNanos();
        delay_ns.Record(now > scheduled ? now - scheduled : 0);
      }
      double seconds = ingest.ElapsedSeconds();
      if (trial == 0 || delay_ns.P99() < best.P99()) {
        best = delay_ns;
        best_seconds = seconds;
        backlog_end = 0;
        if (auto* engine = dynamic_cast<Engine*>(built.processor.get())) {
          backlog_end = engine->strategy().FluidBacklog();
        }
      }
    }
    double seconds = best_seconds;
    state.SetIterationTime(seconds);
    std::vector<std::pair<std::string, double>> row = {
        {"stride_ns", static_cast<double>(stride_ns)},
        {"backlog_end", static_cast<double>(backlog_end)},
        {"qdelay_p50_us", static_cast<double>(best.P50()) / 1e3},
        {"qdelay_p90_us", static_cast<double>(best.P90()) / 1e3},
        {"qdelay_p99_us", static_cast<double>(best.P99()) / 1e3},
        {"qdelay_max_us", static_cast<double>(best.max()) / 1e3}};
    for (const auto& [name, value] : row) state.counters[name] = value;
    std::string series = std::string(ProcessorKindName(kind)) +
                         (fluid_mode ? "_fluid" : "_all_at_once");
    EmitRowJson("fluid", series, static_cast<int64_t>(window), seconds, row);
  }
}

void BM_FluidContrast_MovingStateAllAtOnce(benchmark::State& state) {
  RunFluidContrast(state, ProcessorKind::kMovingState, /*fluid_mode=*/false);
}
void BM_FluidContrast_MovingStateFluid(benchmark::State& state) {
  RunFluidContrast(state, ProcessorKind::kMovingState, /*fluid_mode=*/true);
}
void BM_FluidContrast_JiscFluid(benchmark::State& state) {
  RunFluidContrast(state, ProcessorKind::kJisc, /*fluid_mode=*/true);
}

void BM_HashJoins_Jisc(benchmark::State& state) {
  RunLatency(state, ProcessorKind::kJisc, OpKind::kHashJoin);
}
void BM_HashJoins_MovingState(benchmark::State& state) {
  RunLatency(state, ProcessorKind::kMovingState, OpKind::kHashJoin);
}
void BM_NestedLoops_Jisc(benchmark::State& state) {
  RunLatency(state, ProcessorKind::kJisc, OpKind::kNljJoin);
}
void BM_NestedLoops_MovingState(benchmark::State& state) {
  RunLatency(state, ProcessorKind::kMovingState, OpKind::kNljJoin);
}

// Window sweep: the paper's 10k..100k scaled down. Nested-loops windows
// stay smaller (the eager baseline is quadratic in them).
void HashWindows(benchmark::internal::Benchmark* b) {
  uint64_t w = ScaledWindow();
  for (uint64_t x : {w / 2, w, 2 * w, 5 * w, 10 * w}) {
    b->Arg(static_cast<int64_t>(x));
  }
}
void NljWindows(benchmark::internal::Benchmark* b) {
  uint64_t w = ScaledWindow();
  for (uint64_t x : {w / 4, w / 2, w, 2 * w, 4 * w}) {
    b->Arg(static_cast<int64_t>(x));
  }
}
// The fluid contrast keeps a tighter sweep: per-key completion cost grows
// with the window, and past ~4x the base window a fixed batch_period can
// no longer hide the drain inside the ingest headroom — the window-scaling
// story belongs to RunLatency above; this sweep isolates the pacing story.
void FluidWindows(benchmark::internal::Benchmark* b) {
  uint64_t w = ScaledWindow();
  for (uint64_t x : {w / 2, w, 2 * w}) {
    b->Arg(static_cast<int64_t>(x));
  }
}

}  // namespace
}  // namespace bench
}  // namespace jisc

BENCHMARK(jisc::bench::BM_HashJoins_Jisc)->Apply(jisc::bench::HashWindows)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_HashJoins_MovingState)
    ->Apply(jisc::bench::HashWindows)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_NestedLoops_Jisc)->Apply(jisc::bench::NljWindows)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_NestedLoops_MovingState)
    ->Apply(jisc::bench::NljWindows)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_FluidContrast_MovingStateAllAtOnce)
    ->Apply(jisc::bench::FluidWindows)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_FluidContrast_MovingStateFluid)
    ->Apply(jisc::bench::FluidWindows)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_FluidContrast_JiscFluid)
    ->Apply(jisc::bench::FluidWindows)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
