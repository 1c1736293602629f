#ifndef JISC_OBS_TELEMETRY_H_
#define JISC_OBS_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace jisc {

struct Observability;

// The live telemetry plane: a registry of cheap atomic gauges written from
// the hot paths, sampled periodically into timestamped snapshots by a
// background TelemetrySampler thread. Everything here follows the
// observability null-pointer discipline (obs/observability.h): the registry
// only exists when Observability::Options::telemetry is set, every
// recording site is gated on the pointer, and a disabled run takes zero
// clock reads and zero atomic writes beyond the pointer test.
//
// Track numbering matches the trace recorder's: track 0 is the coordinator
// (or the single-threaded engine), track s + 1 is shard s under the
// parallel executor. Gauges are written only by the thread that owns the
// track (plus the coordinator-side queue gauges, whose writer is the
// coordinator), so plain relaxed atomics suffice — the sampler reads a
// racy-but-coherent point-in-time view, which is all a monitoring plane
// needs.

// Upper bound on tracks (coordinator + 64 shards). Registering more clamps
// onto the last slot; the fixed array means the sampler never races a
// reallocation.
inline constexpr int kTelemetryMaxTracks = 65;

// Per-track gauge block, cache-line aligned so one shard's writes do not
// false-share with its siblings'.
struct alignas(64) TrackTelemetry {
  // Events (arrivals + expiries) fully processed by this track's engine.
  std::atomic<uint64_t> progress_events{0};
  // Highest arrival sequence number processed (watermark; the lag against
  // the registry-global input_seq is the shard's progress lag).
  std::atomic<uint64_t> progress_seq{0};
  // Input feed occupancy in batches (parallel executor shards only).
  std::atomic<uint64_t> queue_depth{0};
  std::atomic<uint64_t> queue_high_watermark{0};
  // Backpressure stalls: the coordinator found the shard feed full and had
  // to block, and for how long in total.
  std::atomic<uint64_t> stall_count{0};
  std::atomic<uint64_t> stalled_ns{0};
  // Approximate resident bytes of the track's operator states, refreshed at
  // the engine's maintain cadence.
  std::atomic<uint64_t> state_memory_bytes{0};
  // Remaining fluid-migration work items (incomplete states + pending
  // per-value completions) on this track's engine; 0 outside a migration
  // episode. Refreshed after every fluid batch and at each transition.
  std::atomic<uint64_t> migration_backlog{0};
  // Times the stall watchdog flagged this track as a straggler suspect
  // (written by the sampler, read by exporters/assertions).
  std::atomic<uint64_t> straggler_flags{0};
  // Ingress guard anomaly gauges (exec/ingress_guard.h): duplicates the
  // guard suppressed, out-of-order arrivals it restored into sequence, and
  // late (gap-skipped-past) arrivals admitted or dropped per policy.
  std::atomic<uint64_t> ingress_duplicates{0};
  std::atomic<uint64_t> ingress_reordered{0};
  std::atomic<uint64_t> ingress_late_admitted{0};
  std::atomic<uint64_t> ingress_late_dropped{0};
};

// One track's gauge values at sample time.
struct TelemetryTrackSample {
  uint64_t progress_events = 0;
  uint64_t progress_seq = 0;
  uint64_t queue_depth = 0;
  uint64_t queue_high_watermark = 0;
  uint64_t stall_count = 0;
  uint64_t stalled_ns = 0;
  uint64_t state_memory_bytes = 0;
  uint64_t migration_backlog = 0;
  uint64_t straggler_flags = 0;
  uint64_t ingress_duplicates = 0;
  uint64_t ingress_reordered = 0;
  uint64_t ingress_late_admitted = 0;
  uint64_t ingress_late_dropped = 0;
};

// One timestamped snapshot of the whole registry plus the cumulative
// histogram counts (from the PR-3 histograms) that consumers difference
// into probe/insert/output rates.
struct TelemetrySnapshot {
  uint64_t t_ns = 0;  // since the registry's epoch
  uint64_t input_events = 0;
  uint64_t input_seq = 0;
  uint64_t output_count = 0;      // output_delay_ns.count()
  uint64_t probe_count = 0;       // probe_ns.count() (service_times only)
  uint64_t insert_count = 0;      // insert_ns.count() (service_times only)
  uint64_t completion_count = 0;  // completion_ns.count()
  std::vector<TelemetryTrackSample> tracks;
};

class TelemetryRegistry {
 public:
  TelemetryRegistry();

  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  // Nanoseconds since construction (steady clock) — the snapshot timeline.
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // Grows the registered track count to at least `count` (atomic max).
  // Components call this at construction, before any sampler starts.
  void RegisterTracks(int count);
  int num_tracks() const {
    return registered_.load(std::memory_order_acquire);
  }

  // --- hot-path writers (all relaxed; zero when telemetry is off because
  // the caller holds no registry at all) ---
  void OnInput(uint64_t seq) {
    input_events_.fetch_add(1, std::memory_order_relaxed);
    StoreMax(&input_seq_, seq);
  }
  void OnEventProcessed(int track, uint64_t seq) {
    TrackTelemetry& t = slot(track);
    t.progress_events.fetch_add(1, std::memory_order_relaxed);
    StoreMax(&t.progress_seq, seq);
  }
  void SetQueueDepth(int track, uint64_t depth) {
    TrackTelemetry& t = slot(track);
    t.queue_depth.store(depth, std::memory_order_relaxed);
    StoreMax(&t.queue_high_watermark, depth);
  }
  void OnStall(int track, uint64_t ns) {
    TrackTelemetry& t = slot(track);
    t.stall_count.fetch_add(1, std::memory_order_relaxed);
    t.stalled_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  void SetStateMemoryBytes(int track, uint64_t bytes) {
    slot(track).state_memory_bytes.store(bytes, std::memory_order_relaxed);
  }
  void SetMigrationBacklog(int track, uint64_t items) {
    slot(track).migration_backlog.store(items, std::memory_order_relaxed);
  }
  // Sampler-side: count one watchdog verdict against the track.
  void NoteStraggler(int track) {
    slot(track).straggler_flags.fetch_add(1, std::memory_order_relaxed);
  }
  // Ingress guard anomaly writers (exec/ingress_guard.cc). Like every hot-
  // path writer: the guard holds no registry at all when telemetry is off.
  void OnIngressDuplicateSuppressed(int track) {
    slot(track).ingress_duplicates.fetch_add(1, std::memory_order_relaxed);
  }
  void OnIngressReorderRestored(int track) {
    slot(track).ingress_reordered.fetch_add(1, std::memory_order_relaxed);
  }
  void OnIngressLateAdmitted(int track) {
    slot(track).ingress_late_admitted.fetch_add(1, std::memory_order_relaxed);
  }
  void OnIngressLateDropped(int track) {
    slot(track).ingress_late_dropped.fetch_add(1, std::memory_order_relaxed);
  }

  // --- reader side ---
  uint64_t input_events() const {
    return input_events_.load(std::memory_order_relaxed);
  }
  uint64_t input_seq() const {
    return input_seq_.load(std::memory_order_relaxed);
  }
  TelemetryTrackSample SampleTrack(int track) const;
  const TrackTelemetry& track(int t) const {
    return const_cast<TelemetryRegistry*>(this)->slot(t);
  }

 private:
  static void StoreMax(std::atomic<uint64_t>* cell, uint64_t v) {
    uint64_t cur = cell->load(std::memory_order_relaxed);
    while (cur < v &&
           !cell->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  TrackTelemetry& slot(int track) {
    if (track < 0) track = 0;
    if (track >= kTelemetryMaxTracks) track = kTelemetryMaxTracks - 1;
    return tracks_[static_cast<size_t>(track)];
  }

  const std::chrono::steady_clock::time_point epoch_;
  // Fixed-size so readers never race a reallocation.
  std::vector<TrackTelemetry> tracks_;
  std::atomic<int> registered_{1};
  std::atomic<uint64_t> input_events_{0};
  std::atomic<uint64_t> input_seq_{0};
};

// Background sampler: every period it snapshots the registry (plus the
// bundle's histogram counts) into a bounded drop-oldest ring and runs the
// stall watchdog. Construction starts the thread (unless
// options.start_thread is false — tests drive SampleOnce() by hand);
// Stop()/destruction joins it and takes one final snapshot so even runs
// shorter than a period leave a series.
//
// Watchdog contract: a shard track is a straggler suspect when its
// progress gauge is flat for `watchdog_samples` consecutive samples WHILE
// its feed queue is non-empty (pending work distinguishes a stall from an
// idle shard) AND at least one sibling shard advanced over the same
// window. Each verdict increments the track's straggler_flags gauge and
// emits a `straggler_suspect` trace instant; the counter re-arms once the
// track makes progress again.
class TelemetrySampler {
 public:
  struct Options {
    uint64_t period_ms = 10;
    // Snapshot ring capacity; the oldest snapshot is dropped when full.
    size_t ring_capacity = 4096;
    // Consecutive flat samples before a straggler verdict.
    int watchdog_samples = 5;
    // Ingress anomaly watchdog: when the per-sample increase of the summed
    // ingress anomaly gauges (duplicates suppressed + late admitted + late
    // dropped, across all tracks) exceeds this, emit one `ingress_anomaly`
    // trace instant per episode. 0 disables the watchdog.
    uint64_t anomaly_threshold = 0;
    // Tests set this to false and call SampleOnce() manually.
    bool start_thread = true;
  };

  // `obs` must outlive the sampler and have telemetry enabled.
  explicit TelemetrySampler(Observability* obs)
      : TelemetrySampler(obs, Options()) {}
  TelemetrySampler(Observability* obs, Options options);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  // Idempotent: stops the thread, joins it, takes the final snapshot.
  void Stop();

  // Takes one snapshot and runs the watchdog. Called by the sampler thread;
  // safe to call from the owner when start_thread was false.
  void SampleOnce() JISC_EXCLUDES(mu_);

  // Snapshot series in ring order (oldest surviving first). Thread-safe.
  std::vector<TelemetrySnapshot> Snapshots() const JISC_EXCLUDES(mu_);
  uint64_t dropped_snapshots() const JISC_EXCLUDES(mu_);
  uint64_t samples_taken() const JISC_EXCLUDES(mu_);

  // Final per-track straggler verdict counts (index = track).
  std::vector<uint64_t> StragglerFlags() const;

  // Ingress anomaly episodes the watchdog flagged (sampler-local counter;
  // one per burst of anomalies above options.anomaly_threshold).
  uint64_t anomaly_episodes() const {
    return anomaly_episodes_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  void Loop() JISC_EXCLUDES(mu_);
  void RunWatchdog(const TelemetrySnapshot& snapshot);

  Observability* const obs_;
  const Options options_;

  mutable Mutex mu_;
  CondVar cv_;
  bool stop_ JISC_GUARDED_BY(mu_) = false;
  bool stopped_ = false;  // owner thread only (Stop idempotence)
  std::vector<TelemetrySnapshot> ring_ JISC_GUARDED_BY(mu_);
  size_t ring_next_ JISC_GUARDED_BY(mu_) = 0;
  size_t ring_size_ JISC_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ JISC_GUARDED_BY(mu_) = 0;
  uint64_t samples_ JISC_GUARDED_BY(mu_) = 0;

  // Watchdog state: touched only from SampleOnce (one caller at a time by
  // contract — the sampler thread, or the owner in manual mode).
  std::vector<uint64_t> last_progress_;
  std::vector<int> flat_samples_;
  std::vector<uint64_t> episode_sibling_max_;
  bool have_last_ = false;

  // Ingress anomaly watchdog state (same single-caller contract).
  uint64_t last_anomaly_total_ = 0;
  bool anomaly_have_last_ = false;
  bool anomaly_episode_open_ = false;
  std::atomic<uint64_t> anomaly_episodes_{0};

  // The sampler owns its background thread: it only reads registry atomics
  // and appends to the mutex-guarded ring, so it cannot deadlock with (or
  // observe partial state of) the executor it watches.
  // jisc-verify: allow(naked-thread) — sampler-owned monitoring thread
  std::thread thread_;
};

}  // namespace jisc

#endif  // JISC_OBS_TELEMETRY_H_
