#ifndef JISC_SCENARIO_SPEC_H_
#define JISC_SCENARIO_SPEC_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "scenario/json.h"
#include "stream/synthetic_source.h"
#include "types/tuple.h"
#include "workload/factory.h"

namespace jisc {
namespace scenario {

// A scenario spec is the JSON description of one controlled experiment:
// the streams and their windows, how arrivals are shaped (skew, bursts,
// lulls, straggler-inducing hot keys), what happens when (transitions,
// checkpoint/restore), and which strategy is under test. Counts are
// authored at paper scale (10,000-tuple windows); the runner multiplies
// them by a scale factor (CI uses 0.02, like JISC_BENCH_SCALE) so one spec
// serves both the PR gate and the nightly soak.
//
// Parsing is strict: an unknown key anywhere in the document is an error,
// so a typo ("windwo": 100) fails the spec instead of silently running the
// default. `jiscbench validate` exposes this check standalone.

// Arrival shaping (maps onto stream/synthetic_source.h).
struct ArrivalSpec {
  Interleave interleave = Interleave::kRoundRobin;
  KeyPattern key_pattern = KeyPattern::kSequential;
  // 0 = "auto": the scaled window size, i.e. unit selectivity per probe —
  // the regime every figure bench runs in.
  uint64_t key_domain = 0;
  // kRandom only: Zipf skew (0 = uniform). Skewed keys concentrate on few
  // values, which under a sharded run also concentrates load on one shard
  // (the straggler-shard scenarios are built from this).
  double zipf_s = 0;
  // kBottomFanout knobs; fanout_streams empty = first and last stream.
  uint64_t fanout = 3;
  std::vector<StreamId> fanout_streams;
  // Event-time stride per arrival (SourceConfig::ts_stride): tuple ts =
  // seq * ts_stride. Only meaningful with window_mode "time"; count-based
  // windows ignore ts, so any value other than 1 is rejected there.
  uint64_t ts_stride = 1;
};

// One contiguous slice of the measured run. Bursts pin arrivals to a
// single stream; lulls are phases whose key domain is widened so probes
// rarely match (output pressure drops); a plain phase restores the
// configured arrival mix.
struct PhaseSpec {
  std::string label;
  uint64_t tuples = 0;                     // paper-scale; scaled by runner
  std::optional<StreamId> force_stream;    // burst: all arrivals one stream
  std::optional<uint64_t> key_domain;      // selectivity shift (scaled)
};

// Join-order targets, all relative to the initial left-deep order.
enum class TransitionKind {
  kInitial,    // back to the starting order
  kBestCase,   // paper Fig. 5: swap the two topmost streams
  kWorstCase,  // paper Fig. 3b: reverse the order
  kRandomSwap, // Section 5.2 triangular pairwise exchange (seeded by `at`)
};

struct EventSpec {
  enum class Action { kTransition, kCheckpointRestore };
  // Measured-tuple offset (paper-scale; scaled by the runner). Events at
  // the same offset fire in spec order, before that tuple is pushed;
  // at == total fires after the last tuple.
  uint64_t at = 0;
  Action action = Action::kTransition;
  TransitionKind transition = TransitionKind::kBestCase;
};

// Live telemetry sampling for the measured stage (obs/telemetry.h). Off by
// default; when enabled the runner allocates the telemetry registry, runs a
// TelemetrySampler alongside the run, and attaches the sampled series to
// the bundle's noisy "telemetry" section (never to the deterministic
// sections — baselines are unaffected).
struct TelemetrySpec {
  bool enabled = false;
  uint64_t period_ms = 10;      // sampling period
  int watchdog_samples = 5;     // flat samples before a straggler verdict
  // Post-run assertions on the stall watchdog, for locking in watchdog
  // behavior from a scenario: symmetric specs assert no shard was flagged;
  // fault-injection specs assert exactly the injected shard was.
  bool expect_no_stragglers = false;
  std::optional<int> expect_straggler_shard;
};

// Fault injection. The straggler fields are wall-clock faults
// (ParallelExecutor::Options straggler fields): the chosen shard's worker
// sleeps `stall_ms` after every `stall_every` processed events. Outputs and
// deterministic counters are untouched, so injected runs remain
// baseline-comparable. `drop_every` is a deterministic fault, orthogonal to
// the straggler fields and valid at any parallelism: the runner consumes
// every drop_every-th measured arrival without pushing it, so dropped runs
// produce different (but still byte-identical across repeats) counters and
// carry the drop count in the bundle's deterministic section.
// The deterministic ingress faults (duplicate_every, reorder_window,
// drop_burst) corrupt the measured feed in seed-stable ways: the same spec
// at the same seed always duplicates, shuffles, and drops the same
// arrivals, so faulted runs still compare exact against their own
// baselines. Their per-fault counts land in the bundle's deterministic
// shape section next to dropped_arrivals.
struct FaultSpec {
  int straggler_shard = -1;  // -1 = off
  uint64_t stall_ms = 0;
  uint64_t stall_every = 64;
  uint64_t drop_every = 0;  // 0 = off; N >= 2 drops every Nth arrival
  // Re-deliver every Nth measured arrival immediately after itself, with
  // its original payload and sequence number. 0 = off; N >= 2.
  uint64_t duplicate_every = 0;
  // Shuffle measured arrivals in seeded tumbling batches of this size
  // (bounded reordering: a tuple is never displaced by more than
  // reorder_window - 1 positions, and batches do not interleave). 0 = off.
  uint64_t reorder_window = 0;
  // Drop `drop_burst` consecutive measured arrivals starting at offset
  // `drop_burst_at` (paper-scale; scaled by the runner). Composes with
  // drop_every. 0 = off.
  uint64_t drop_burst = 0;
  uint64_t drop_burst_at = 0;
};

// Opt-in engine-side ingress resilience ("ingress" key): wraps the
// processor in an IngressGuard (exec/ingress_guard.h) that suppresses
// duplicates and restores order before admission. With the guard on, a
// run under duplicate/reorder faults reproduces the clean run's
// deterministic counters exactly.
struct IngressSpec {
  bool enabled = false;
  uint64_t dedup_window = 1024;   // per-stream recent-seq window (unscaled)
  uint64_t reorder_window = 64;   // guard buffer bound (unscaled)
  std::string overflow = "admit_late";  // admit_late | drop_late | fail
  // Ingress anomaly watchdog threshold (TelemetrySampler::Options
  // anomaly_threshold); requires telemetry.enabled. 0 = off.
  uint64_t anomaly_threshold = 0;
};

// Migration pacing ("migration" key). all_at_once (the default) performs
// the whole state carryover/completion inside the transition; fluid drains
// it in bounded per-key batches between tuples, each batch capped by
// batch_keys items and by delay_budget_us of deterministic work-unit
// budget (core/migration_strategy.h FluidOptions). batch_keys 0 means
// unbounded and degenerates to the literal all-at-once code path.
struct MigrationSpec {
  std::string mode = "all_at_once";  // all_at_once | fluid
  uint64_t batch_keys = 64;
  uint64_t delay_budget_us = 50;
};

// Post-run latency assertions ("expect" key), checked by the runner after
// the measured stage. Latency is machine-dependent noise, so these gate
// loudly (the run fails) against generous absolute ceilings instead of
// riding in the baseline-compared sections; the runner additionally floors
// the threshold (runner.cc) so debug or loaded machines do not flake.
struct ExpectSpec {
  std::optional<uint64_t> output_delay_p99_us;
};

struct Spec {
  std::string name;
  std::string description;
  uint64_t seed = 42;

  int streams = 4;
  uint64_t window = 10000;          // uniform count window (paper scale)
  std::vector<uint64_t> windows;    // per-stream override (paper scale)
  // "count" (default) or "time": time-based sliding windows, where
  // `window`/`windows` are event-time durations (scaled like counts) and
  // expiry follows tuple.ts = seq * arrival.ts_stride.
  std::string window_mode = "count";

  ArrivalSpec arrival;

  // Warmup fills the windows before measurement starts; counters and wall
  // time of the measured stage exclude it. Expressed in full window
  // turnovers (tuples = warmup_windows * streams * window) or directly.
  double warmup_windows = 2;
  std::optional<uint64_t> warmup_tuples;  // paper-scale override

  std::vector<PhaseSpec> phases;    // at least one
  std::vector<EventSpec> schedule;

  // Strategy under test (a ProcessorKindName; `jiscbench run --strategy`
  // overrides) and shard count for the engine kinds.
  std::string strategy = "jisc";
  int parallelism = 1;  // 1..kMaxParallelism

  // Record per-operator probe/insert service-time histograms (extra clock
  // reads on the hot path; off by default).
  bool service_times = false;

  // Live telemetry sampling and watchdog expectations ("telemetry" key).
  TelemetrySpec telemetry;

  // Straggler fault injection ("fault" key); requires parallelism > 1.
  FaultSpec fault;

  // Engine-side ingress resilience ("ingress" key).
  IngressSpec ingress;

  // Migration pacing ("migration" key).
  MigrationSpec migration;

  // Post-run latency assertions ("expect" key).
  ExpectSpec expect;

  // Include in the CI perf-gate pack (the soak spec opts out).
  bool gate = true;

  // Per-metric relative thresholds for `jiscbench compare`, e.g.
  // {"wall.measured_seconds": 0.5}. Counters are always exact-match and
  // cannot be loosened here.
  std::map<std::string, double> thresholds;
};

// Strategy-name lookup over workload/factory.h's ProcessorKindName table.
StatusOr<ProcessorKind> StrategyFromName(const std::string& name);

// Parse + validate. Unknown keys, wrong types, and semantically invalid
// values (phase of zero tuples, event offset past the run, fanout stream
// out of range, ...) are all InvalidArgument.
StatusOr<Spec> ParseSpec(const Json& json);
StatusOr<Spec> ParseSpecText(const std::string& text);
StatusOr<Spec> LoadSpecFile(const std::string& path);

// Inverse of ParseSpec; ParseSpec(SpecToJson(s)) reproduces s (the
// round-trip test in scenario_test locks this in).
Json SpecToJson(const Spec& spec);

// Upper bound on Spec::parallelism (and so on `jiscbench --parallelism`):
// every shard is a worker thread. The largest committed spec uses 8.
constexpr int kMaxParallelism = 64;

// Semantic validation (also run by ParseSpec).
Status ValidateSpec(const Spec& spec);

// Sum of phase tuple counts at paper scale.
uint64_t TotalMeasuredTuples(const Spec& spec);

// The processor configuration a spec selects: parallelism, the straggler
// fault, ingress and migration pacing. The runner adds the run's
// observability bundle.
ProcessorConfig ToProcessorConfig(const Spec& spec);

}  // namespace scenario
}  // namespace jisc

#endif  // JISC_SCENARIO_SPEC_H_
