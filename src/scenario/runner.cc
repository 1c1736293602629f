#include "scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/hash.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "exec/ingress_guard.h"
#include "obs/observability.h"
#include "obs/telemetry.h"
#include "plan/transitions.h"

namespace jisc {
namespace scenario {
namespace {

// Scaled schedule offset: 0 stays 0 (an event before the first measured
// tuple), anything else is clamped into the measured range.
uint64_t ScaleOffset(uint64_t at, double scale, uint64_t total) {
  if (at == 0) return 0;
  return std::min(ScaleCount(at, scale), total);
}

std::vector<StreamId> InitialOrder(int streams) {
  std::vector<StreamId> order;
  order.reserve(static_cast<size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    order.push_back(static_cast<StreamId>(i));
  }
  return order;
}

// The per-event target join order. random_swap draws from an Rng seeded by
// (run seed, event offset): the swap is deterministic for a given spec yet
// differs across events.
std::vector<StreamId> TargetOrder(const EventSpec& event,
                                  const std::vector<StreamId>& initial,
                                  const std::vector<StreamId>& current,
                                  uint64_t seed) {
  switch (event.transition) {
    case TransitionKind::kInitial:
      return initial;
    case TransitionKind::kBestCase:
      return BestCaseOrder(initial);
    case TransitionKind::kWorstCase:
      return WorstCaseOrder(initial);
    case TransitionKind::kRandomSwap: {
      Rng rng(HashCombine(seed, event.at));
      return RandomTriangularSwap(current, &rng);
    }
  }
  return current;
}

// Per-name (accumulated + final - warmup): every name appears in all three
// snapshots in the same declaration order, and counters only grow, so the
// subtraction never wraps.
std::vector<std::pair<std::string, uint64_t>> CounterDelta(
    const Metrics& accumulated, const Metrics& final_metrics,
    const Metrics& warmup) {
  auto acc = accumulated.NamedCounters();
  auto fin = final_metrics.NamedCounters();
  auto warm = warmup.NamedCounters();
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(fin.size());
  for (size_t i = 0; i < fin.size(); ++i) {
    out.emplace_back(fin[i].first,
                     acc[i].second + fin[i].second - warm[i].second);
  }
  return out;
}

// Seeded bounded-shuffle delivery buffer (fault.reorder_window): arrivals
// collect into tumbling batches of `window` tuples; each full batch is
// Fisher-Yates-shuffled and delivered whole. Displacement is therefore
// strictly bounded — a tuple never moves more than window-1 positions, and
// batches do not interleave — which is what lets an IngressGuard with
// reorder_window >= the fault window restore order without ever
// gap-skipping. The Rng is derived from the run seed, so the same spec at
// the same seed always produces the same reordering.
class ReorderInjector {
 public:
  ReorderInjector(size_t window, uint64_t seed) : window_(window), rng_(seed) {}

  // True when the injector is a pass-through (fault off).
  bool disabled() const { return window_ == 0; }

  template <typename Deliver>
  void Feed(const BaseTuple& tuple, Deliver&& deliver) {
    if (window_ == 0) {
      deliver(tuple);
      return;
    }
    buf_.push_back(tuple);
    if (buf_.size() >= window_) ShuffleAndDeliver(deliver);
  }

  template <typename Deliver>
  void Flush(Deliver&& deliver) {
    if (!buf_.empty()) ShuffleAndDeliver(deliver);
  }

 private:
  template <typename Deliver>
  void ShuffleAndDeliver(Deliver&& deliver) {
    for (size_t i = buf_.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(rng_.UniformU64(i + 1));
      std::swap(buf_[i], buf_[j]);
    }
    for (const BaseTuple& t : buf_) deliver(t);
    buf_.clear();
  }

  size_t window_;
  Rng rng_;
  std::vector<BaseTuple> buf_;
};

}  // namespace

uint64_t ScaleCount(uint64_t paper_scale_count, double scale) {
  auto scaled = static_cast<uint64_t>(
      std::llround(static_cast<double>(paper_scale_count) * scale));
  return scaled == 0 ? 1 : scaled;
}

uint64_t ScaleWindow(uint64_t paper_scale_window, double scale) {
  // Same floor as bench_common's ScaledWindow: tiny windows distort the
  // selectivity regime every scenario is designed around.
  uint64_t scaled = ScaleCount(paper_scale_window, scale);
  return scaled < 50 ? 50 : scaled;
}

StatusOr<RunResult> RunScenario(const Spec& spec, const RunOptions& options) {
  // Merge CLI overrides into an effective spec and re-validate: an
  // override can invalidate a valid spec (e.g. --strategy cacq on a spec
  // that schedules a checkpoint).
  Spec eff = spec;
  if (!options.strategy.empty()) eff.strategy = options.strategy;
  if (options.parallelism > 0) eff.parallelism = options.parallelism;
  if (options.seed.has_value()) eff.seed = *options.seed;
  Status valid = ValidateSpec(eff);
  if (!valid.ok()) return valid;
  if (options.scale <= 0) {
    return Status::InvalidArgument("scale must be > 0");
  }
  StatusOr<ProcessorKind> kind_or = StrategyFromName(eff.strategy);
  if (!kind_or.ok()) return kind_or.status();
  ProcessorKind kind = kind_or.value();
  double scale = options.scale;

  // Scaled windows. Time mode scales the durations exactly like counts —
  // at ts_stride 1 a duration IS an arrival count, so the scaled regimes
  // match the count-window scenarios'.
  int streams = eff.streams;
  bool time_windows = eff.window_mode == "time";
  WindowSpec windows;
  uint64_t window0 = 0;
  if (eff.windows.empty()) {
    window0 = ScaleWindow(eff.window, scale);
    windows = time_windows ? WindowSpec::UniformTime(streams, window0)
                           : WindowSpec::Uniform(streams, window0);
  } else {
    std::vector<uint64_t> sizes;
    sizes.reserve(eff.windows.size());
    for (uint64_t w : eff.windows) sizes.push_back(ScaleWindow(w, scale));
    window0 = sizes[0];
    windows = time_windows ? WindowSpec::PerStreamTime(std::move(sizes))
                           : WindowSpec::PerStream(std::move(sizes));
  }

  // Arrival source. key_domain "auto" (0) tracks the scaled first-stream
  // window — unit selectivity per probe, the figure benches' regime.
  SourceConfig cfg;
  cfg.num_streams = streams;
  cfg.key_domain = eff.arrival.key_domain == 0
                       ? window0
                       : ScaleCount(eff.arrival.key_domain, scale);
  cfg.zipf_s = eff.arrival.zipf_s;
  cfg.key_pattern = eff.arrival.key_pattern;
  cfg.fanout = eff.arrival.fanout;
  if (eff.arrival.key_pattern == KeyPattern::kBottomFanout) {
    cfg.fanout_streams =
        eff.arrival.fanout_streams.empty()
            ? std::vector<StreamId>{0, static_cast<StreamId>(streams - 1)}
            : eff.arrival.fanout_streams;
  }
  cfg.interleave = eff.arrival.interleave;
  // The stride is an event-time resolution, not a workload magnitude: it
  // stays unscaled (window durations scale instead).
  cfg.ts_stride = eff.arrival.ts_stride;
  cfg.seed = eff.seed;
  SyntheticSource src(cfg);
  uint64_t base_domain = cfg.key_domain;

  Observability::Options obs_opts;
  obs_opts.record_service_times = eff.service_times;
  bool telemetry_on =
      eff.telemetry.enabled || options.telemetry_period_ms > 0;
  obs_opts.telemetry = telemetry_on;
  Observability obs(obs_opts);

  ProcessorConfig config = ToProcessorConfig(eff);
  config.obs = &obs;
  LogicalPlan initial_plan =
      LogicalPlan::LeftDeep(InitialOrder(streams), OpKind::kHashJoin);
  BuiltProcessor built = MakeProcessor(kind, initial_plan, windows, config);

  // The sampler starts after the processor is built (tracks registered) and
  // covers warmup + measured stage; Stop() below takes the final snapshot.
  TelemetrySampler::Options sampler_opts;
  sampler_opts.period_ms = options.telemetry_period_ms > 0
                               ? options.telemetry_period_ms
                               : eff.telemetry.period_ms;
  sampler_opts.watchdog_samples = eff.telemetry.watchdog_samples;
  sampler_opts.anomaly_threshold = eff.ingress.anomaly_threshold;
  std::unique_ptr<TelemetrySampler> sampler;
  if (telemetry_on) {
    sampler = std::make_unique<TelemetrySampler>(&obs, sampler_opts);
  }

  RunResult result;
  result.scenario = eff.name;
  result.strategy = eff.strategy;
  result.seed = eff.seed;
  result.scale = scale;
  result.parallelism = eff.parallelism;
  result.window = window0;
  result.thresholds = eff.thresholds;

  // Warmup: fill the windows outside the measured stage.
  uint64_t warmup =
      eff.warmup_tuples.has_value()
          ? ScaleCount(*eff.warmup_tuples, scale)
          : static_cast<uint64_t>(std::llround(
                eff.warmup_windows * static_cast<double>(streams) *
                static_cast<double>(window0)));
  if (eff.warmup_tuples.has_value() && *eff.warmup_tuples == 0) warmup = 0;
  result.warmup_tuples = warmup;
  {
    WallTimer timer;
    for (uint64_t i = 0; i < warmup; ++i) built.processor->Push(src.Next());
    // metrics() quiesces the sharded path, so the warmup snapshot (and the
    // timer) cover completed work, not queued work.
    result.warmup_seconds = timer.ElapsedSeconds();
  }
  Metrics warmup_snapshot = built.processor->metrics();

  // Measured stage.
  uint64_t total = 0;
  for (const PhaseSpec& p : eff.phases) total += ScaleCount(p.tuples, scale);
  result.measured_tuples = total;

  // Schedule, scaled and stably ordered by offset.
  struct ScaledEvent {
    uint64_t at;
    const EventSpec* event;
  };
  std::vector<ScaledEvent> schedule;
  schedule.reserve(eff.schedule.size());
  for (const EventSpec& e : eff.schedule) {
    schedule.push_back({ScaleOffset(e.at, scale, total), &e});
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ScaledEvent& a, const ScaledEvent& b) {
                     return a.at < b.at;
                   });

  std::vector<StreamId> initial_order = InitialOrder(streams);
  std::vector<StreamId> current_order = initial_order;
  // Replaced engines' counters (checkpoint/restore zeroes Metrics).
  Metrics accumulated;

  auto fire_event = [&](const EventSpec& event) -> Status {
    if (event.action == EventSpec::Action::kTransition) {
      std::vector<StreamId> target =
          TargetOrder(event, initial_order, current_order, eff.seed);
      if (target == current_order) return Status::Ok();
      Status s = built.processor->RequestTransition(
          LogicalPlan::LeftDeep(target, OpKind::kHashJoin));
      if (!s.ok()) return s;
      current_order = std::move(target);
      ++result.transitions;
      return Status::Ok();
    }
    // Checkpoint/restore (S16): serialize the engine, rebuild it from the
    // bytes, and continue the run on the restored engine. The restored
    // engine's Metrics restart from zero, so bank the old engine's
    // counters first. An ingress-guarded engine checkpoints through the
    // guarded wrapper (guard state rides along in the same bytes).
    // The restored engine is built from the run's own config, so a
    // mid-fluid checkpoint resumes the drain where the bytes left it.
    EngineRecipe recipe = EngineRecipeFor(kind, config);
    auto swap_in = [&](auto restored) -> Status {
      if (!restored.ok()) return restored.status();
      accumulated += built.processor->metrics();
      built.processor = std::move(restored).value();
      ++result.checkpoint_restores;
      return Status::Ok();
    };
    if (auto* guarded =
            dynamic_cast<GuardedProcessor*>(built.processor.get())) {
      StatusOr<std::string> bytes = CheckpointGuardedEngine(*guarded);
      if (!bytes.ok()) return bytes.status();
      return swap_in(RestoreGuardedEngine(bytes.value(), built.sink.get(),
                                          recipe.strategy_factory(),
                                          recipe.config));
    }
    auto* engine = dynamic_cast<Engine*>(built.processor.get());
    if (engine == nullptr) {
      return Status::FailedPrecondition(
          "checkpoint_restore: processor is not a single-threaded engine");
    }
    StatusOr<std::string> bytes = CheckpointEngine(*engine);
    if (!bytes.ok()) return bytes.status();
    return swap_in(RestoreEngine(bytes.value(), built.sink.get(),
                                 recipe.strategy_factory(), recipe.config));
  };

  // Ingress fault pipeline: drop decisions happen first (a dropped arrival
  // is consumed and never seen again), surviving tuples pass through the
  // seeded reorder buffer, and duplication re-feeds the original tuple so
  // the duplicate is reordered independently of its twin. `deliver` counts
  // an arrival as reordered when it lands below the highest seq already
  // delivered — a deterministic function of the seed.
  ReorderInjector reorder(eff.fault.reorder_window,
                          HashCombine(eff.seed, 0x7265726f72646572ULL));
  Seq max_delivered = 0;
  bool any_delivered = false;
  auto deliver = [&](const BaseTuple& t) {
    if (any_delivered && t.seq < max_delivered) ++result.reordered_arrivals;
    max_delivered = std::max(max_delivered, t.seq);
    any_delivered = true;
    built.processor->Push(t);
  };
  auto emit = [&](const BaseTuple& t) { reorder.Feed(t, deliver); };
  // Drains the harness-side fault buffers so schedule events (and the end
  // of the run) observe every arrival issued before them — the attempted-
  // arrival semantics of event offsets extend to faulted runs.
  auto flush_faults = [&] {
    reorder.Flush(deliver);
    if (auto* guarded =
            dynamic_cast<GuardedProcessor*>(built.processor.get())) {
      guarded->FlushPending();
    }
  };
  uint64_t burst_at = eff.fault.drop_burst > 0
                          ? ScaleOffset(eff.fault.drop_burst_at, scale, total)
                          : 0;
  uint64_t burst_len =
      eff.fault.drop_burst > 0 ? ScaleCount(eff.fault.drop_burst, scale) : 0;

  size_t next_event = 0;
  uint64_t pushed = 0;
  WallTimer timer;
  for (const PhaseSpec& phase : eff.phases) {
    // Phases are self-contained: entering one sets the forced stream and
    // the key domain it declares (or restores the configured defaults).
    src.ForceStream(phase.force_stream);
    src.SetKeyDomain(phase.key_domain.has_value()
                         ? ScaleCount(*phase.key_domain, scale)
                         : base_domain);
    uint64_t phase_tuples = ScaleCount(phase.tuples, scale);
    for (uint64_t i = 0; i < phase_tuples; ++i, ++pushed) {
      if (next_event < schedule.size() && schedule[next_event].at == pushed) {
        flush_faults();
        do {
          Status s = fire_event(*schedule[next_event].event);
          if (!s.ok()) return s;
          ++next_event;
        } while (next_event < schedule.size() &&
                 schedule[next_event].at == pushed);
      }
      // Deterministic dropped-arrival faults: every drop_every-th measured
      // arrival, and the drop_burst consecutive arrivals starting at
      // drop_burst_at, are consumed from the source but never pushed.
      // Schedule offsets keep counting attempted arrivals (`pushed`
      // advances), so a faulted run fires its events at the same offsets
      // as a clean one.
      bool drop_periodic = eff.fault.drop_every != 0 &&
                           (pushed + 1) % eff.fault.drop_every == 0;
      bool drop_burst = burst_len > 0 && pushed >= burst_at &&
                        pushed < burst_at + burst_len;
      if (drop_periodic || drop_burst) {
        (void)src.Next();
        ++result.dropped_arrivals;
        continue;
      }
      BaseTuple t = src.Next();
      emit(t);
      if (eff.fault.duplicate_every != 0 &&
          (pushed + 1) % eff.fault.duplicate_every == 0) {
        ++result.duplicated_arrivals;
        emit(t);
      }
    }
  }
  flush_faults();
  // Events scheduled at (or clamped to) the end of the run.
  while (next_event < schedule.size()) {
    Status s = fire_event(*schedule[next_event].event);
    if (!s.ok()) return s;
    ++next_event;
  }
  // Quiescing metrics read doubles as the sharded path's barrier; take it
  // inside the timed region so measured_seconds covers completed work.
  Metrics final_metrics = built.processor->metrics();
  result.measured_seconds = timer.ElapsedSeconds();
  result.throughput_tps =
      result.measured_seconds > 0
          ? static_cast<double>(total) / result.measured_seconds
          : 0;

  result.counters = CounterDelta(accumulated, final_metrics, warmup_snapshot);

  if (auto* guarded =
          dynamic_cast<GuardedProcessor*>(built.processor.get())) {
    const IngressGuard::Stats& stats = guarded->guard().stats();
    result.duplicates_suppressed = stats.duplicates_suppressed;
    result.reorder_restored = stats.reorder_restored;
    result.late_admitted = stats.late_admitted;
    result.late_dropped = stats.late_dropped;
  }

  result.histograms.emplace_back("output_delay_ns",
                                 SummarizeHistogram(obs.output_delay_ns));
  result.histograms.emplace_back("completion_ns",
                                 SummarizeHistogram(obs.completion_ns));

  // Post-run latency assertion ("expect" key). Wall-clock latency is noisy
  // across machines, so the spec's ceiling is floored at 1000us: the
  // assertion catches order-of-magnitude regressions (an all-at-once stall
  // where the spec demands fluid pacing), not scheduler jitter.
  if (eff.expect.output_delay_p99_us.has_value()) {
    constexpr uint64_t kExpectFloorUs = 1000;
    uint64_t ceiling_us =
        std::max(*eff.expect.output_delay_p99_us, kExpectFloorUs);
    uint64_t p99_us = result.histograms.front().second.p99 / 1000;
    if (p99_us > ceiling_us) {
      return Status::FailedPrecondition(
          "expect: output delay p99 " + std::to_string(p99_us) +
          "us exceeds the asserted ceiling " + std::to_string(ceiling_us) +
          "us (spec expect.output_delay_p99_us=" +
          std::to_string(*eff.expect.output_delay_p99_us) + ")");
    }
  }
  if (eff.service_times) {
    result.histograms.emplace_back("probe_ns",
                                   SummarizeHistogram(obs.probe_ns));
    result.histograms.emplace_back("insert_ns",
                                   SummarizeHistogram(obs.insert_ns));
  }

  if (options.capture_trace) {
    result.trace = obs.trace.Snapshot();
    result.trace_dropped = obs.trace.dropped();
  }

  if (sampler != nullptr) {
    sampler->Stop();
    result.telemetry.enabled = true;
    result.telemetry.period_ms = sampler_opts.period_ms;
    result.telemetry.watchdog_samples = sampler_opts.watchdog_samples;
    result.telemetry.samples = sampler->samples_taken();
    result.telemetry.dropped_snapshots = sampler->dropped_snapshots();
    result.telemetry.series = sampler->Snapshots();
    result.telemetry.straggler_flags = sampler->StragglerFlags();
    result.telemetry.anomaly_episodes = sampler->anomaly_episodes();
    // Watchdog expectations: lock in the verdict from the spec itself —
    // symmetric specs must stay flag-free, fault-injection specs must flag
    // exactly the injected shard.
    const std::vector<uint64_t>& flags = result.telemetry.straggler_flags;
    if (eff.telemetry.expect_no_stragglers) {
      for (size_t t = 0; t < flags.size(); ++t) {
        if (flags[t] != 0) {
          return Status::FailedPrecondition(
              "telemetry: watchdog flagged track " + std::to_string(t) +
              " as a straggler, but the spec expects none");
        }
      }
    }
    if (eff.telemetry.expect_straggler_shard.has_value()) {
      size_t want =
          static_cast<size_t>(*eff.telemetry.expect_straggler_shard) + 1;
      if (want >= flags.size() || flags[want] == 0) {
        return Status::FailedPrecondition(
            "telemetry: watchdog did not flag shard " +
            std::to_string(*eff.telemetry.expect_straggler_shard) +
            " despite the injected stall");
      }
      for (size_t t = 0; t < flags.size(); ++t) {
        if (t != want && flags[t] != 0) {
          return Status::FailedPrecondition(
              "telemetry: watchdog flagged track " + std::to_string(t) +
              " in addition to the injected shard");
        }
      }
    }
  }
  return result;
}

}  // namespace scenario
}  // namespace jisc
