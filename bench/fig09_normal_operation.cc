// Figure 9: overhead during normal operation (no transition in flight) on a
// 20-join plan. (a) JISC vs a pure symmetric-hash-join pipeline (what the
// Parallel Track strategy runs outside migration); (b) JISC vs CACQ.
//
// Expected shape (paper): JISC adds almost nothing over the plain pipeline;
// CACQ is roughly 2x slower because every tuple bounces through the eddy
// once per join.
//
// JISC_TELEMETRY_MS=<period>: attach the live-telemetry plane (gauges +
// background sampler at that period) to each contender's run — the CI
// observability-smoke job and the perf gate's telemetry-overhead probe both
// use this knob. With JISC_OBS_DIR also set, the sampled series lands next
// to the trace/metrics files as <name>.telemetry.jsonl / <name>.prom.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "obs/observability.h"
#include "obs/telemetry.h"

namespace jisc {
namespace bench {
namespace {

constexpr int kJoins = 20;

void RunNormal(benchmark::State& state, ProcessorKind kind) {
  int streams = kJoins + 1;
  uint64_t window = ScaledWindow();
  uint64_t telemetry_ms =
      static_cast<uint64_t>(GetEnvInt("JISC_TELEMETRY_MS", 0));
  LogicalPlan plan = LogicalPlan::LeftDeep(Order(streams), OpKind::kHashJoin);
  for (auto _ : state) {
    SourceConfig cfg;
    cfg.num_streams = streams;
    cfg.key_domain = DomainFor(window);
    cfg.key_pattern = KeyPattern::kBottomFanout;
    cfg.fanout_streams = {0, static_cast<StreamId>(cfg.num_streams - 1)};
    cfg.seed = 99;
    SyntheticSource src(cfg);
    std::unique_ptr<Observability> obs;
    std::unique_ptr<TelemetrySampler> sampler;
    ProcessorConfig config;
    if (telemetry_ms > 0) {
      Observability::Options oopts;
      oopts.telemetry = true;
      obs = std::make_unique<Observability>(oopts);
      config.obs = obs.get();
    }
    BuiltProcessor built = MakeProcessor(
        kind, plan, WindowSpec::Uniform(streams, window), config);
    if (obs != nullptr) {
      TelemetrySampler::Options topts;
      topts.period_ms = telemetry_ms;
      sampler = std::make_unique<TelemetrySampler>(obs.get(), topts);
    }
    // Warm the windows, then measure steady state.
    for (size_t i = 0; i < static_cast<size_t>(streams) * window; ++i) {
      built.processor->Push(src.Next());
    }
    size_t n = static_cast<size_t>(streams) * window * 4;
    ConsumeStats stats = Consume(built.processor.get(), &src, n);
    state.SetIterationTime(stats.seconds);
    std::vector<std::pair<std::string, double>> row = {
        {"tuples", static_cast<double>(stats.tuples)},
        {"throughput_tps",
         static_cast<double>(stats.tuples) / stats.seconds},
        {"work_units", static_cast<double>(stats.work_units)},
        {"work_per_tuple", static_cast<double>(stats.work_units) /
                               static_cast<double>(stats.tuples)},
        {"eddy_visits",
         static_cast<double>(built.processor->metrics().eddy_visits)}};
    if (sampler != nullptr) {
      sampler->Stop();
      row.emplace_back("telemetry_samples",
                       static_cast<double>(sampler->samples_taken()));
      ExportObservability(std::string("fig09_") + ProcessorKindName(kind),
                          *obs, &built.processor->metrics(), sampler.get());
    }
    for (const auto& [name, value] : row) state.counters[name] = value;
    EmitRowJson("fig09", ProcessorKindName(kind), kJoins, stats.seconds,
                row);
  }
}

// Fig. 9a contenders.
void BM_Jisc(benchmark::State& state) {
  RunNormal(state, ProcessorKind::kJisc);
}
void BM_PureSymmetricHashJoin(benchmark::State& state) {
  RunNormal(state, ProcessorKind::kStaticPipeline);
}
// Fig. 9b contender.
void BM_Cacq(benchmark::State& state) {
  RunNormal(state, ProcessorKind::kCacq);
}
// Supplementary stateless baseline: CACQ without the eddy round trips.
void BM_MJoin(benchmark::State& state) {
  RunNormal(state, ProcessorKind::kMJoin);
}

}  // namespace
}  // namespace bench
}  // namespace jisc

BENCHMARK(jisc::bench::BM_PureSymmetricHashJoin)->UseManualTime()
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_Jisc)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_Cacq)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(jisc::bench::BM_MJoin)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
