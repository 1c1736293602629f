#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/observability.h"
#include "obs/trace.h"

namespace jisc {

TelemetryRegistry::TelemetryRegistry()
    : epoch_(std::chrono::steady_clock::now()),
      tracks_(kTelemetryMaxTracks) {}

void TelemetryRegistry::RegisterTracks(int count) {
  if (count > kTelemetryMaxTracks) count = kTelemetryMaxTracks;
  int cur = registered_.load(std::memory_order_relaxed);
  while (cur < count && !registered_.compare_exchange_weak(
                            cur, count, std::memory_order_acq_rel)) {
  }
}

TelemetryTrackSample TelemetryRegistry::SampleTrack(int t) const {
  const TrackTelemetry& tt = track(t);
  TelemetryTrackSample s;
  s.progress_events = tt.progress_events.load(std::memory_order_relaxed);
  s.progress_seq = tt.progress_seq.load(std::memory_order_relaxed);
  s.queue_depth = tt.queue_depth.load(std::memory_order_relaxed);
  s.queue_high_watermark =
      tt.queue_high_watermark.load(std::memory_order_relaxed);
  s.stall_count = tt.stall_count.load(std::memory_order_relaxed);
  s.stalled_ns = tt.stalled_ns.load(std::memory_order_relaxed);
  s.state_memory_bytes =
      tt.state_memory_bytes.load(std::memory_order_relaxed);
  s.migration_backlog = tt.migration_backlog.load(std::memory_order_relaxed);
  s.straggler_flags = tt.straggler_flags.load(std::memory_order_relaxed);
  s.ingress_duplicates =
      tt.ingress_duplicates.load(std::memory_order_relaxed);
  s.ingress_reordered = tt.ingress_reordered.load(std::memory_order_relaxed);
  s.ingress_late_admitted =
      tt.ingress_late_admitted.load(std::memory_order_relaxed);
  s.ingress_late_dropped =
      tt.ingress_late_dropped.load(std::memory_order_relaxed);
  return s;
}

TelemetrySampler::TelemetrySampler(Observability* obs, Options options)
    : obs_(obs), options_(options) {
  JISC_CHECK(obs_ != nullptr);
  JISC_CHECK(obs_->telemetry != nullptr)
      << "TelemetrySampler requires Observability::Options::telemetry";
  JISC_CHECK(options_.period_ms > 0);
  JISC_CHECK(options_.ring_capacity > 0);
  JISC_CHECK(options_.watchdog_samples >= 2);
  if (options_.start_thread) {
    // jisc-verify: allow(naked-thread) — sampler-owned monitoring thread
    thread_ = std::thread([this] { Loop(); });
  }
}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::Stop() {
  if (stopped_) return;
  stopped_ = true;
  {
    MutexLock lk(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  // Final snapshot: even a run shorter than one period leaves a series, and
  // the last sample reflects the end state (final watermarks, high marks).
  SampleOnce();
}

void TelemetrySampler::Loop() {
  for (;;) {
    SampleOnce();
    MutexLock lk(&mu_);
    if (stop_) return;
    cv_.WaitFor(&mu_, std::chrono::milliseconds(options_.period_ms));
    if (stop_) return;
  }
}

void TelemetrySampler::SampleOnce() {
  const TelemetryRegistry& reg = *obs_->telemetry;
  TelemetrySnapshot snap;
  snap.t_ns = reg.NowNs();
  snap.input_events = reg.input_events();
  snap.input_seq = reg.input_seq();
  snap.output_count = obs_->output_delay_ns.count();
  snap.probe_count = obs_->probe_ns.count();
  snap.insert_count = obs_->insert_ns.count();
  snap.completion_count = obs_->completion_ns.count();
  int tracks = reg.num_tracks();
  snap.tracks.reserve(static_cast<size_t>(tracks));
  for (int t = 0; t < tracks; ++t) snap.tracks.push_back(reg.SampleTrack(t));

  RunWatchdog(snap);

  MutexLock lk(&mu_);
  ++samples_;
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(snap));
    ring_size_ = ring_.size();
    ring_next_ = ring_.size() % options_.ring_capacity;
  } else {
    ring_[ring_next_] = std::move(snap);
    ring_next_ = (ring_next_ + 1) % options_.ring_capacity;
    ++dropped_;
  }
}

void TelemetrySampler::RunWatchdog(const TelemetrySnapshot& snapshot) {
  // Ingress anomaly watchdog: one `ingress_anomaly` instant per episode in
  // which the summed anomaly gauges grow faster than the threshold per
  // sample. Mirrors the straggler watchdog's once-per-episode discipline.
  if (options_.anomaly_threshold > 0) {
    uint64_t total = 0;
    for (const TelemetryTrackSample& t : snapshot.tracks) {
      total += t.ingress_duplicates + t.ingress_late_admitted +
               t.ingress_late_dropped;
    }
    uint64_t delta = total - last_anomaly_total_;
    if (anomaly_have_last_ && delta > options_.anomaly_threshold) {
      if (!anomaly_episode_open_) {
        anomaly_episode_open_ = true;
        anomaly_episodes_.fetch_add(1, std::memory_order_relaxed);
        if (obs_ != nullptr) {
          TraceInstant(&obs_->trace, "ingress_anomaly", "telemetry", 0,
                       "events", delta);
        }
      }
    } else {
      anomaly_episode_open_ = false;
    }
    last_anomaly_total_ = total;
    anomaly_have_last_ = true;
  }

  // Shard tracks only (track 0 is the coordinator), and only with siblings
  // to compare against.
  int tracks = static_cast<int>(snapshot.tracks.size());
  int num_shards = tracks - 1;
  if (num_shards < 2) return;
  if (last_progress_.size() < snapshot.tracks.size()) {
    last_progress_.resize(snapshot.tracks.size(), 0);
    flat_samples_.resize(snapshot.tracks.size(), 0);
    episode_sibling_max_.resize(snapshot.tracks.size(), 0);
  }
  if (!have_last_) {
    for (int t = 0; t < tracks; ++t) {
      last_progress_[static_cast<size_t>(t)] =
          snapshot.tracks[static_cast<size_t>(t)].progress_events;
    }
    have_last_ = true;
    return;
  }
  for (int t = 1; t < tracks; ++t) {
    auto ti = static_cast<size_t>(t);
    const TelemetryTrackSample& cur = snapshot.tracks[ti];
    bool flat = cur.progress_events == last_progress_[ti];
    bool backlog = cur.queue_depth > 0;
    if (flat && backlog) {
      if (flat_samples_[ti] == 0) {
        // Episode start: remember where the siblings stood, so the verdict
        // can require that at least one of them advanced meanwhile.
        uint64_t sibling_max = 0;
        for (int s = 1; s < tracks; ++s) {
          if (s == t) continue;
          sibling_max =
              std::max(sibling_max,
                       snapshot.tracks[static_cast<size_t>(s)].progress_events);
        }
        episode_sibling_max_[ti] = sibling_max;
      }
      ++flat_samples_[ti];
      if (flat_samples_[ti] == options_.watchdog_samples) {
        uint64_t sibling_now = 0;
        for (int s = 1; s < tracks; ++s) {
          if (s == t) continue;
          sibling_now =
              std::max(sibling_now,
                       snapshot.tracks[static_cast<size_t>(s)].progress_events);
        }
        if (sibling_now > episode_sibling_max_[ti]) {
          obs_->telemetry->NoteStraggler(t);
          TraceInstant(&obs_->trace, "straggler_suspect", "telemetry", t,
                       "flat_samples",
                       static_cast<uint64_t>(flat_samples_[ti]));
        }
        // Re-arm only after the track moves again; a shard stuck forever is
        // flagged once per episode, not once per sample.
      }
    } else {
      flat_samples_[ti] = 0;
    }
    last_progress_[ti] = cur.progress_events;
  }
}

std::vector<TelemetrySnapshot> TelemetrySampler::Snapshots() const {
  MutexLock lk(&mu_);
  std::vector<TelemetrySnapshot> out;
  out.reserve(ring_size_);
  if (ring_.size() < options_.ring_capacity) {
    out = ring_;
  } else {
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
    }
  }
  return out;
}

uint64_t TelemetrySampler::dropped_snapshots() const {
  MutexLock lk(&mu_);
  return dropped_;
}

uint64_t TelemetrySampler::samples_taken() const {
  MutexLock lk(&mu_);
  return samples_;
}

std::vector<uint64_t> TelemetrySampler::StragglerFlags() const {
  const TelemetryRegistry& reg = *obs_->telemetry;
  std::vector<uint64_t> flags;
  int tracks = reg.num_tracks();
  flags.reserve(static_cast<size_t>(tracks));
  for (int t = 0; t < tracks; ++t) {
    flags.push_back(reg.track(t).straggler_flags.load(
        std::memory_order_relaxed));
  }
  return flags;
}

}  // namespace jisc
