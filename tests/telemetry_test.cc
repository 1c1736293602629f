// Test battery for the live telemetry plane (obs/telemetry.h): registry
// gauge semantics (counts, watermarks, clamping), the sampler's bounded
// drop-oldest snapshot ring, the stall watchdog's verdict contract
// (flat + backlog + sibling advance, once per episode), and a live
// sampling run against a real ParallelExecutor. The live test doubles as
// a race check: CI's ThreadSanitizer job matches this binary by name.

#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/jisc_runtime.h"
#include "core/parallel_engine.h"
#include "exec/parallel_executor.h"
#include "migration/moving_state.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "plan/transitions.h"
#include "tests/test_util.h"

namespace jisc {
namespace {

using testutil::IdentityOrder;
using testutil::UniformWorkload;

std::unique_ptr<Observability> MakeObs() {
  Observability::Options opts;
  opts.telemetry = true;
  return std::make_unique<Observability>(opts);
}

// --- registry gauges -------------------------------------------------------

TEST(TelemetryRegistryTest, GaugesCountAndKeepWatermarks) {
  TelemetryRegistry reg;
  reg.RegisterTracks(3);
  EXPECT_EQ(reg.num_tracks(), 3);

  reg.OnInput(5);
  reg.OnInput(3);  // lower seq must not regress the watermark
  EXPECT_EQ(reg.input_events(), 2u);
  EXPECT_EQ(reg.input_seq(), 5u);

  reg.OnEventProcessed(1, 9);
  reg.OnEventProcessed(1, 4);
  reg.SetQueueDepth(1, 7);
  reg.SetQueueDepth(1, 2);  // depth falls, high watermark sticks
  reg.OnStall(1, 100);
  reg.OnStall(1, 250);
  reg.SetStateMemoryBytes(1, 4096);
  reg.NoteStraggler(1);

  TelemetryTrackSample s = reg.SampleTrack(1);
  EXPECT_EQ(s.progress_events, 2u);
  EXPECT_EQ(s.progress_seq, 9u);
  EXPECT_EQ(s.queue_depth, 2u);
  EXPECT_EQ(s.queue_high_watermark, 7u);
  EXPECT_EQ(s.stall_count, 2u);
  EXPECT_EQ(s.stalled_ns, 350u);
  EXPECT_EQ(s.state_memory_bytes, 4096u);
  EXPECT_EQ(s.straggler_flags, 1u);
  // A sibling track stays untouched.
  EXPECT_EQ(reg.SampleTrack(2).progress_events, 0u);
}

TEST(TelemetryRegistryTest, TrackCountGrowsMonotonicallyAndClamps) {
  TelemetryRegistry reg;
  reg.RegisterTracks(4);
  reg.RegisterTracks(2);  // never shrinks
  EXPECT_EQ(reg.num_tracks(), 4);
  reg.RegisterTracks(kTelemetryMaxTracks + 50);
  EXPECT_EQ(reg.num_tracks(), kTelemetryMaxTracks);
  // Out-of-range tracks clamp onto the edge slots instead of corrupting
  // memory: the hot path never bounds-checks, the clamp is the bound.
  reg.OnEventProcessed(kTelemetryMaxTracks + 7, 1);
  EXPECT_EQ(reg.SampleTrack(kTelemetryMaxTracks - 1).progress_events, 1u);
  reg.OnEventProcessed(-3, 2);
  EXPECT_EQ(reg.SampleTrack(0).progress_events, 1u);
}

// --- sampler ring ----------------------------------------------------------

TelemetrySampler::Options ManualOptions(size_t ring, int watchdog = 5) {
  TelemetrySampler::Options o;
  o.ring_capacity = ring;
  o.watchdog_samples = watchdog;
  o.start_thread = false;
  return o;
}

TEST(TelemetrySamplerTest, RingDropsOldestKeepsOrder) {
  auto obs = MakeObs();
  TelemetrySampler sampler(obs.get(), ManualOptions(/*ring=*/4));
  for (int i = 0; i < 6; ++i) {
    obs->telemetry->OnInput(static_cast<uint64_t>(i));
    sampler.SampleOnce();
  }
  EXPECT_EQ(sampler.samples_taken(), 6u);
  EXPECT_EQ(sampler.dropped_snapshots(), 2u);
  std::vector<TelemetrySnapshot> snaps = sampler.Snapshots();
  ASSERT_EQ(snaps.size(), 4u);
  // Snapshot i saw i+1 inputs; the oldest two (1, 2) were dropped.
  for (size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].input_events, i + 3) << "ring order broken at " << i;
    if (i > 0) {
      EXPECT_GE(snaps[i].t_ns, snaps[i - 1].t_ns);
    }
  }
}

TEST(TelemetrySamplerTest, StopTakesFinalSnapshotAndIsIdempotent) {
  auto obs = MakeObs();
  TelemetrySampler sampler(obs.get(), ManualOptions(/*ring=*/8));
  obs->telemetry->OnInput(1);
  sampler.Stop();
  EXPECT_EQ(sampler.Snapshots().size(), 1u);
  sampler.Stop();  // second stop must not add another snapshot
  EXPECT_EQ(sampler.Snapshots().size(), 1u);
  EXPECT_EQ(sampler.Snapshots().back().input_events, 1u);
}

// --- stall watchdog --------------------------------------------------------

// Watchdog fixtures drive SampleOnce() by hand: track 1 is the advancing
// sibling, track 2 the suspect. Each Tick optionally advances the sibling
// and sets the suspect's backlog, mirroring what the sampler would read
// off a live executor.
class WatchdogTest : public ::testing::Test {
 protected:
  WatchdogTest() : obs_(MakeObs()) {
    obs_->telemetry->RegisterTracks(3);  // coordinator + 2 shards
    sampler_ = std::make_unique<TelemetrySampler>(
        obs_.get(), ManualOptions(/*ring=*/64, /*watchdog=*/3));
  }

  void Tick(bool sibling_advances, uint64_t suspect_backlog) {
    if (sibling_advances) {
      obs_->telemetry->OnEventProcessed(1, ++seq_);
    }
    obs_->telemetry->SetQueueDepth(2, suspect_backlog);
    sampler_->SampleOnce();
  }

  uint64_t SuspectFlags() { return sampler_->StragglerFlags()[2]; }

  std::unique_ptr<Observability> obs_;
  std::unique_ptr<TelemetrySampler> sampler_;
  uint64_t seq_ = 0;
};

TEST_F(WatchdogTest, FlagsFlatShardWithBacklogOncePerEpisode) {
  Tick(true, 1);  // baseline sample seeds last-progress
  Tick(true, 1);  // flat 1 (episode starts; sibling position remembered)
  Tick(true, 1);  // flat 2
  EXPECT_EQ(SuspectFlags(), 0u);
  Tick(true, 1);  // flat 3 == watchdog_samples -> verdict
  EXPECT_EQ(SuspectFlags(), 1u);
  Tick(true, 1);  // still flat: same episode, no second verdict
  Tick(true, 1);
  EXPECT_EQ(SuspectFlags(), 1u);

  // Progress re-arms the watchdog; a second stall is a second episode.
  obs_->telemetry->OnEventProcessed(2, 999);
  Tick(true, 1);
  Tick(true, 1);
  Tick(true, 1);
  EXPECT_EQ(SuspectFlags(), 1u);
  Tick(true, 1);
  EXPECT_EQ(SuspectFlags(), 2u);
}

TEST_F(WatchdogTest, IgnoresIdleShardWithEmptyQueue) {
  // Flat without backlog is an idle shard (hash skew sends it nothing),
  // not a straggler.
  for (int i = 0; i < 8; ++i) Tick(/*sibling_advances=*/true, 0);
  EXPECT_EQ(SuspectFlags(), 0u);
}

TEST_F(WatchdogTest, NoVerdictWhenSiblingsAreFlatToo) {
  // Everyone flat (e.g. the coordinator paused the whole executor for a
  // migration): no relative judgment is possible, so no verdict.
  for (int i = 0; i < 8; ++i) Tick(/*sibling_advances=*/false, 5);
  EXPECT_EQ(SuspectFlags(), 0u);
  EXPECT_EQ(sampler_->StragglerFlags()[1], 0u);
}

TEST(TelemetryWatchdogTest, NeedsSiblingsToJudge) {
  // One shard has no siblings to fall behind; the watchdog stays silent.
  auto obs = MakeObs();
  obs->telemetry->RegisterTracks(2);  // coordinator + 1 shard
  TelemetrySampler sampler(obs.get(),
                           ManualOptions(/*ring=*/16, /*watchdog=*/2));
  obs->telemetry->SetQueueDepth(1, 9);
  for (int i = 0; i < 6; ++i) sampler.SampleOnce();
  EXPECT_EQ(sampler.StragglerFlags()[1], 0u);
}

TEST(TelemetryWatchdogTest, VerdictEmitsTraceInstant) {
  auto obs = MakeObs();
  obs->telemetry->RegisterTracks(3);
  TelemetrySampler sampler(obs.get(),
                           ManualOptions(/*ring=*/16, /*watchdog=*/2));
  obs->telemetry->SetQueueDepth(2, 4);
  sampler.SampleOnce();  // baseline
  obs->telemetry->OnEventProcessed(1, 1);
  sampler.SampleOnce();  // flat 1
  obs->telemetry->OnEventProcessed(1, 2);
  sampler.SampleOnce();  // flat 2 -> verdict
  ASSERT_EQ(sampler.StragglerFlags()[2], 1u);
  bool found = false;
  for (const TraceSpan& s : obs->trace.Snapshot()) {
    if (std::string("straggler_suspect") == s.name) found = true;
  }
  EXPECT_TRUE(found) << "verdict should leave a straggler_suspect span";
}

// --- live executor ---------------------------------------------------------

// End-to-end: a real sharded engine with the gauges hot and a background
// sampler racing it at 1ms. Correctness of the sampled numbers is loose
// (monotone counters, plausible totals); the test's sharper role is under
// ThreadSanitizer, where any gauge/sampler race would surface.
TEST(TelemetryLiveTest, SamplesLiveParallelExecutor) {
  auto obs = MakeObs();
  constexpr int kStreams = 4;
  constexpr int kParallelism = 4;
  LogicalPlan plan =
      LogicalPlan::LeftDeep(IdentityOrder(kStreams), OpKind::kHashJoin);
  ProcessorConfig eopts;
  eopts.parallelism = kParallelism;
  eopts.obs = obs.get();
  eopts.shards.queue_capacity = 8;  // small queues: exercise the stall gauges
  eopts.shards.batch_size = 4;
  CollectingSink sink;
  auto proc = MakeEngineProcessor(
      plan, WindowSpec::Uniform(kStreams, 64), &sink,
      [] { return MakeMovingStateStrategy(); }, eopts);

  TelemetrySampler::Options sopts;
  sopts.period_ms = 1;
  TelemetrySampler sampler(obs.get(), sopts);

  constexpr size_t kTuples = 20000;
  for (const BaseTuple& t : UniformWorkload(kStreams, 64, kTuples)) {
    proc->Push(t);
  }
  auto* parallel = dynamic_cast<ParallelExecutor*>(proc.get());
  ASSERT_NE(parallel, nullptr);
  parallel->Barrier();
  sampler.Stop();

  std::vector<TelemetrySnapshot> snaps = sampler.Snapshots();
  ASSERT_GE(snaps.size(), 1u);
  const TelemetrySnapshot& last = snaps.back();
  EXPECT_EQ(last.input_events, kTuples);
  ASSERT_EQ(last.tracks.size(), static_cast<size_t>(1 + kParallelism));
  uint64_t shard_progress = 0;
  uint64_t max_hwm = 0;
  for (int s = 1; s <= kParallelism; ++s) {
    shard_progress += last.tracks[static_cast<size_t>(s)].progress_events;
    // After the barrier every feed is drained. The worker's gauge refresh
    // runs just after it acks the barrier batch, so allow that one batch.
    EXPECT_LE(last.tracks[static_cast<size_t>(s)].queue_depth, 1u);
    max_hwm = std::max(
        max_hwm, last.tracks[static_cast<size_t>(s)].queue_high_watermark);
  }
  // Tiny feeds against a 20k-tuple burst must have shown real occupancy.
  EXPECT_GE(max_hwm, 1u);
  // Every arrival lands on exactly one shard; expiries only add on top.
  EXPECT_GE(shard_progress, kTuples);
  for (size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GE(snaps[i].t_ns, snaps[i - 1].t_ns);
    EXPECT_GE(snaps[i].input_events, snaps[i - 1].input_events);
  }
}

}  // namespace
}  // namespace jisc
