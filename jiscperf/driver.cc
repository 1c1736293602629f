// The repository benchmark driver. One invocation runs one workload:
//
//   jiscperf --workload <steady|migrate|hotkey|sharded> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// It generates the workload's inputs from the seed before any timing and
// computes each one's expected output digest, then repeats rounds until the
// time budget is spent; round r uses input r % inputs. Each pass builds a
// fresh processor through MakeEngineProcessor, fills the windows (set-up),
// and pushes the measured tuples. With --trace 0 a round is a closed-loop
// pass (push as fast as possible: throughput and memory) and an open-loop
// pass at the workload's fixed rate (output latency from each tuple's
// scheduled arrival). Untraced passes take host speed readings (HostSpeed)
// around set-up and between chunks, and report set-up times and throughput
// at the reference host's speed; single-threaded, they are timed on the
// thread's CPU clock, and open-loop segments are scheduled and reported at
// that speed too.
// With --trace 1 a round is an untraced and a traced
// closed-loop pass, the traced one timing every call into the engine from
// here; a replay then drives one OperatorState directly. Every pass's
// outputs are checked against the oracle. The last stdout line is one JSON
// object with the metrics.

#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/jisc_runtime.h"
#include "core/parallel_engine.h"
#include "exec/parallel_executor.h"
#include "exec/sink.h"
#include "host_speed.h"
#include "oracle.h"
#include "spans.h"
#include "state/operator_state.h"
#include "workload.h"

namespace jiscperf {
namespace {

using jisc::BaseTuple;

// A clock in nanoseconds: NowNs or ThreadCpuNowNs.
using Clock = uint64_t (*)();

// Passes of each kind a run makes even when the time budget is spent.
constexpr int kMinRounds = 2;
// Spans kept for the Chrome trace file.
constexpr size_t kTraceSpanCapacity = 20000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

template <typename T>
std::vector<double> ToDouble(const std::vector<T>& v) {
  return std::vector<double>(v.begin(), v.end());
}

// Idle ticks (idle + iowait) of each CPU, by number, from /proc/stat.
std::map<int, uint64_t> IdleTicks() {
  std::map<int, uint64_t> out;
  std::ifstream f("/proc/stat");
  std::string line;
  while (std::getline(f, line)) {
    if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 || line[3] < '0' ||
        line[3] > '9') {
      continue;
    }
    std::istringstream in(line.substr(3));
    int cpu = 0;
    uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0;
    in >> cpu >> user >> nice >> system >> idle >> iowait;
    out[cpu] = idle + iowait;
  }
  return out;
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> out;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
  }
  return out;
}

// Pins the process to the CPU that was idle longest over a short sample, so
// a single-threaded run is not migrated between cores. A fixed choice
// halved a run's speed whenever another busy process shared that CPU.
void PinToIdlestCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const std::map<int, uint64_t> before = IdleTicks();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int best = -1;
  uint64_t best_idle = 0;
  for (const auto& [cpu, idle] : IdleTicks()) {
    auto it = before.find(cpu);
    if (it == before.end() || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    const uint64_t d = idle - it->second;
    if (best < 0 || d >= best_idle) {
      best = cpu;
      best_idle = d;
    }
  }
  if (best < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  sched_setaffinity(0, sizeof one, &one);
}

// CPU time (user + system) of every thread of this process, by tid, read
// from /proc/self/task/<tid>/stat.
std::map<int, uint64_t> ThreadCpuNs() {
  std::map<int, uint64_t> out;
  const double ns_per_tick = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(f, line)) continue;
    // Fields after the parenthesised command: state is field 3, utime and
    // stime are fields 14 and 15.
    size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    uint64_t utime = 0;
    uint64_t stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
      if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    out[std::atoi(e->d_name)] =
        static_cast<uint64_t>(static_cast<double>(utime + stime) * ns_per_tick);
  }
  closedir(dir);
  return out;
}

// A size field of /proc/self/status ("VmRSS", "VmHWM") in bytes.
uint64_t StatusBytes(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string prefix = field + ":";
  while (std::getline(f, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10) * 1024;
    }
  }
  return 0;
}

// Hands freed heap back to the system and restarts the resident set's
// high-water mark (VmHWM) from the current resident set, which it returns.
// The benchmark's own input and oracle stay resident throughout, so the
// high-water mark at the end of a pass minus this is what the pass added.
uint64_t RestartPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return StatusBytes("VmRSS");
}

// The benchmark's sink: folds every delivery into the output digest and,
// in an open-loop pass, records each output's latency from the scheduled
// arrival of the newest tuple that contributed to it, grouped by that
// tuple's latency segment. In a traced single-threaded pass it also times
// its own callback as a child span of the push that delivered it.
class BenchSink final : public jisc::Sink {
 public:
  void OnOutput(const jisc::Tuple& tuple, jisc::Stamp) override {
    const uint64_t t0 = log_ != nullptr ? NowNs() : 0;
    AddOutput(&digest_, CombinationHash(tuple));
    if (segments_ != nullptr) RecordLatency(tuple);
    if (log_ != nullptr) EndSpan(t0);
  }
  void OnRetract(const jisc::Tuple& tuple, jisc::Stamp) override {
    const uint64_t t0 = log_ != nullptr ? NowNs() : 0;
    AddRetraction(&digest_, CombinationHash(tuple));
    if (log_ != nullptr) EndSpan(t0);
  }

  // Open loop: measured tuple j (seq first_seq + j) belongs to segment
  // g = j / segment_tuples and was due at Due(j) on `clock`.
  void StartLatency(std::vector<std::vector<float>>* segments,
                    uint64_t segment_tuples, jisc::Seq first_seq,
                    Clock clock, const std::vector<uint64_t>* segment_start_ns,
                    const std::vector<double>* segment_period_ns) {
    segments_ = segments;
    clock_ = clock;
    segment_tuples_ = segment_tuples;
    first_seq_ = first_seq;
    segment_start_ns_ = segment_start_ns;
    segment_period_ns_ = segment_period_ns;
  }

  // When measured tuple j was due: its segment's start plus its place in
  // the segment times the segment's arrival period.
  double Due(uint64_t j) const {
    const uint64_t g = j / segment_tuples_;
    return static_cast<double>((*segment_start_ns_)[g]) +
           static_cast<double>(j - g * segment_tuples_) *
               (*segment_period_ns_)[g];
  }

  // Traced push: callback spans nest under `parent`.
  void BeginPush(SpanLog* log, int parent, jisc::Seq seq) {
    log_ = log;
    parent_ = parent;
    seq_ = seq;
    push_sink_ns_ = 0;
  }
  uint64_t push_sink_ns() const { return push_sink_ns_; }

  const OutputDigest& digest() const { return digest_; }

 private:
  void RecordLatency(const jisc::Tuple& tuple) {
    jisc::Seq newest = 0;
    for (const BaseTuple& p : tuple.parts()) newest = std::max(newest, p.seq);
    if (newest < first_seq_) return;  // made entirely of warm-up tuples
    const uint64_t j = newest - first_seq_;
    (*segments_)[j / segment_tuples_].push_back(
        static_cast<float>((static_cast<double>(clock_()) - Due(j)) / 1e3));
  }

  void EndSpan(uint64_t t0) {
    const uint64_t t1 = NowNs();
    int h = log_->Open(kSinkEmit, t0, parent_, seq_);
    log_->Close(h, kSinkEmit, t1, t1 - t0, t1 - t0);
    push_sink_ns_ += t1 - t0;
  }

  OutputDigest digest_;
  std::vector<std::vector<float>>* segments_ = nullptr;
  uint64_t segment_tuples_ = 1;
  jisc::Seq first_seq_ = 0;
  Clock clock_ = NowNs;
  const std::vector<uint64_t>* segment_start_ns_ = nullptr;
  const std::vector<double>* segment_period_ns_ = nullptr;
  SpanLog* log_ = nullptr;
  int parent_ = -1;
  jisc::Seq seq_ = 0;
  uint64_t push_sink_ns_ = 0;
};

enum class PassKind { kClosed, kOpen, kTraced };

// Set-up times and chunk throughputs are expressed at the reference host's
// speed (see HostSpeed), and so are segment latencies when single-threaded.
struct PassResult {
  double setup_s = 0;
  // Measured stage: from the first measured push through the final
  // quiesce, host speed readings left out.
  double measure_s = 0;
  double tps = 0;
  // Closed loop: throughput of each chunk of measured tuples (one latency
  // segment; the whole pass when sharded or with transitions).
  std::vector<double> chunk_tps;
  // Untraced: every host speed reading.
  std::vector<double> speeds;
  // Closed loop: peak resident memory the pass added, set-up included.
  double rss_growth_mb = 0;
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  bool digest_ok = false;
  // Open loop: output latency p50 and p99 of each segment.
  std::vector<double> segment_p50_us;
  std::vector<double> segment_p99_us;
  std::vector<double> lag_ns;
  // Sharded closed loop: CPU of the coordinator and of all other threads.
  uint64_t coord_cpu_ns = 0;
  uint64_t worker_cpu_ns = 0;
  // Traced.
  jisc::Metrics counters;  // measured stage only
  uint64_t state_bytes = 0;
  double push_p50_ns = 0;
  double push_p99_ns = 0;
  uint64_t push_self_total_ns = 0;
  double transition_ms_max = 0;
  double transition_ms_total = 0;
  double completion_push_s = 0;
  double barrier_ms = 0;
  std::vector<uint64_t> shard_arrivals;
};

jisc::Metrics Delta(const jisc::Metrics& end, const jisc::Metrics& start) {
  jisc::Metrics d;
  auto sub = [](const jisc::Counter& a, const jisc::Counter& b) {
    return jisc::Counter(a.value() - b.value());
  };
  d.arrivals = sub(end.arrivals, start.arrivals);
  d.messages = sub(end.messages, start.messages);
  d.probes = sub(end.probes, start.probes);
  d.probe_entries = sub(end.probe_entries, start.probe_entries);
  d.matches = sub(end.matches, start.matches);
  d.inserts = sub(end.inserts, start.inserts);
  d.removals = sub(end.removals, start.removals);
  d.outputs = sub(end.outputs, start.outputs);
  d.retractions = sub(end.retractions, start.retractions);
  d.completions = sub(end.completions, start.completions);
  d.completion_inserts = sub(end.completion_inserts, start.completion_inserts);
  d.completion_dedup_hits =
      sub(end.completion_dedup_hits, start.completion_dedup_hits);
  d.eddy_visits = sub(end.eddy_visits, start.eddy_visits);
  d.dedup_checks = sub(end.dedup_checks, start.dedup_checks);
  d.purge_scan_entries = sub(end.purge_scan_entries, start.purge_scan_entries);
  return d;
}

class Runner {
 public:
  Runner(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec),
        now_(spec.shards > 1 ? NowNs : ThreadCpuNowNs),
        speeds_(spec.shards > 1 ? AllowedCpus().size() : 1),
        initial_(InitialPlan(spec)),
        reversed_(ReversedPlan(spec)) {
    for (int i = 0; i < spec.inputs; ++i) {
      Input in;
      in.tuples = GenerateInput(spec, seed, i);
      in.expected = ExpectedDigest(in.tuples, spec.streams, spec.window);
      inputs_.push_back(std::move(in));
    }
  }

  // The input round `round` uses.
  const std::vector<BaseTuple>& input(int round) const {
    return At(round).tuples;
  }

  PassResult Run(PassKind kind, int round, SpanLog* log) {
    const Input& in = At(round);
    PassResult r;
    BenchSink sink;
    const bool closed = kind == PassKind::kClosed;
    const uint64_t rss_start = closed ? RestartPeakRss() : 0;
    // Untraced passes take host speed readings around set-up, after every
    // chunk and, single-threaded, between open-loop segments. Traced passes
    // take none (a speed of 1).
    const bool read_speed = kind != PassKind::kTraced;
    uint64_t reading_ns = 0;
    auto reading = [&] {
      if (!read_speed) return 1.0;
      const uint64_t a = now_();
      r.speeds.push_back(ReadSpeed());
      reading_ns += now_() - a;
      return r.speeds.back();
    };
    const double setup_speed = reading();
    const uint64_t setup_start = now_();
    jisc::Engine::Options options;
    options.parallelism = spec_.shards;
    std::unique_ptr<jisc::StreamProcessor> proc = jisc::MakeEngineProcessor(
        initial_, Windows(spec_), &sink, [] { return jisc::MakeJiscStrategy(); },
        options);
    auto* parallel = dynamic_cast<jisc::ParallelExecutor*>(proc.get());
    for (uint64_t i = 0; i < spec_.warmup_tuples; ++i) proc->Push(in.tuples[i]);
    if (parallel != nullptr) parallel->Barrier();
    r.setup_s = static_cast<double>(now_() - setup_start) / 1e9;
    r.ops += spec_.warmup_tuples;
    double speed = reading();
    r.setup_s *= (setup_speed + speed) / 2;

    const bool traced = kind == PassKind::kTraced;
    // Engine::metrics() is a plain read; the sharded one quiesces first,
    // which is fine between stages but not per push.
    const bool track_completions = traced && parallel == nullptr;
    jisc::Metrics warm;
    if (traced) warm = proc->metrics();
    std::map<int, uint64_t> cpu_start;
    if (closed && parallel != nullptr) cpu_start = ThreadCpuNs();
    const double period_ns = 1e9 / spec_.open_loop_rate;
    const Layer push_layer = parallel != nullptr ? kParallelPush : kCorePush;
    reading_ns = 0;
    const uint64_t start = now_();
    const size_t num_segments =
        (spec_.pass_tuples + spec_.segment_tuples - 1) / spec_.segment_tuples;
    std::vector<std::vector<float>> segments(num_segments);
    // The open loop runs at the workload's rate at the reference host's
    // speed: segment g starts after the reading before it and runs at
    // period_ns / segment_speed[g], and its latencies are multiplied by
    // segment_speed[g]. So a slower host sees proportionally fewer tuples
    // per second and the engine runs at the same utilisation. Between
    // single-threaded segments nothing is queued (Push returns when its work
    // is done), so the pause costs the next segment nothing. Sharded, the
    // schedule runs on without readings.
    std::vector<uint64_t> segment_start(num_segments);
    std::vector<double> segment_speed(num_segments, 1.0);
    std::vector<double> segment_period(num_segments, period_ns);
    const bool open = kind == PassKind::kOpen;
    if (open && parallel == nullptr) {
      segment_speed[0] = speed;
      segment_period[0] = period_ns / speed;
    }
    if (open) {
      for (size_t g = 0; g < num_segments; ++g) {
        segment_start[g] = start + static_cast<uint64_t>(static_cast<double>(
                                       g * spec_.segment_tuples) *
                                   period_ns);
      }
      r.lag_ns.reserve(spec_.pass_tuples);
      sink.StartLatency(&segments, spec_.segment_tuples,
                        spec_.warmup_tuples + 1, now_, &segment_start,
                        &segment_period);
    }
    std::vector<double> push_self_ns;
    if (traced) push_self_ns.reserve(spec_.pass_tuples);
    // With transitions a chunk is one transition period, and only chunks
    // that open with a transition count (as for latency segments). A chunk's
    // throughput is divided by the mean of the readings either side of it.
    const uint64_t chunk = spec_.transition_every != 0 ? spec_.transition_every
                                                       : spec_.segment_tuples;
    const bool time_chunks = closed && parallel == nullptr;
    uint64_t chunk_start = start;
    auto end_chunk = [&](uint64_t first, uint64_t end) {
      const double tps = static_cast<double>(end - first) * 1e9 /
                         static_cast<double>(now_() - chunk_start);
      const double before = speed;
      speed = reading();
      if (Counts(first)) r.chunk_tps.push_back(tps / ((before + speed) / 2));
      chunk_start = now_();
    };
    const bool pause_segments = open && read_speed && parallel == nullptr;
    uint64_t transitions = 0;
    for (uint64_t j = 0; j < spec_.pass_tuples; ++j) {
      const BaseTuple& t = in.tuples[spec_.warmup_tuples + j];
      if (time_chunks && j != 0 && j % chunk == 0) end_chunk(j - chunk, j);
      if (pause_segments && j != 0 && j % spec_.segment_tuples == 0) {
        const size_t g = j / spec_.segment_tuples;
        segment_speed[g] = reading();
        segment_period[g] = period_ns / segment_speed[g];
        segment_start[g] = now_();
      }
      if (open) {
        const uint64_t due = static_cast<uint64_t>(sink.Due(j));
        uint64_t now = now_();
        while (now < due) {
          // A single-threaded run spins on its own CPU; its thread's CPU
          // clock would not advance while it slept. When sharded, the shard
          // workers and the coordinator already fill every CPU, so the
          // generator sleeps and then pushes what fell due meanwhile.
          if (parallel != nullptr) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          }
          now = now_();
        }
        r.lag_ns.push_back(static_cast<double>(now - due));
      }
      if (TransitionBefore(spec_, j)) {
        ++transitions;
        const jisc::LogicalPlan& plan =
            transitions % 2 == 1 ? reversed_ : initial_;
        const uint64_t a = NowNs();
        int h = traced ? log->Open(kCoreTransition, a, -1, t.seq) : -1;
        jisc::Status st = proc->RequestTransition(plan);
        if (traced) {
          const uint64_t b = NowNs();
          log->Close(h, kCoreTransition, b, b - a, b - a);
          const double ms = static_cast<double>(b - a) / 1e6;
          r.transition_ms_max = std::max(r.transition_ms_max, ms);
          r.transition_ms_total += ms;
        }
        ++r.ops;
        if (!st.ok()) ++r.failed_ops;
      }
      ++r.ops;
      if (!traced) {
        proc->Push(t);
        continue;
      }
      const uint64_t completions_before =
          track_completions ? proc->metrics().completions.value() : 0;
      const uint64_t a = NowNs();
      int h = log->Open(push_layer, a, -1, t.seq);
      if (parallel == nullptr) sink.BeginPush(log, h, t.seq);
      proc->Push(t);
      const uint64_t b = NowNs();
      const uint64_t self = (b - a) - sink.push_sink_ns();
      log->Close(h, push_layer, b, b - a, self);
      push_self_ns.push_back(static_cast<double>(self));
      r.push_self_total_ns += self;
      if (track_completions &&
          proc->metrics().completions.value() > completions_before) {
        r.completion_push_s += static_cast<double>(b - a) / 1e9;
      }
    }
    if (parallel == nullptr) sink.BeginPush(nullptr, -1, 0);
    if (parallel != nullptr) {
      const uint64_t a = NowNs();
      int h = traced ? log->Open(kParallelBarrier, a, -1, 0) : -1;
      parallel->Barrier();
      const uint64_t b = NowNs();
      if (traced) log->Close(h, kParallelBarrier, b, b - a, b - a);
      r.barrier_ms = static_cast<double>(b - a) / 1e6;
    }
    if (time_chunks) {
      end_chunk((spec_.pass_tuples - 1) / chunk * chunk, spec_.pass_tuples);
    }
    const uint64_t end = now_();
    r.measure_s = static_cast<double>(end - start - reading_ns) / 1e9;
    if (closed && !time_chunks) {
      const double before = speed;
      speed = reading();
      r.chunk_tps.push_back(static_cast<double>(spec_.pass_tuples) /
                            r.measure_s / ((before + speed) / 2));
    }
    for (size_t g = 0; g < segments.size(); ++g) {
      if (segments[g].empty() || !Counts(g * spec_.segment_tuples)) continue;
      std::vector<double> lat = ToDouble(segments[g]);
      r.segment_p50_us.push_back(Quantile(lat, 0.5) * segment_speed[g]);
      r.segment_p99_us.push_back(Quantile(lat, 0.99) * segment_speed[g]);
    }
    r.tps = static_cast<double>(spec_.pass_tuples) / r.measure_s;
    if (!cpu_start.empty()) {
      const int coordinator = static_cast<int>(getpid());
      for (const auto& [tid, ns] : ThreadCpuNs()) {
        auto it = cpu_start.find(tid);
        if (it == cpu_start.end()) continue;
        (tid == coordinator ? r.coord_cpu_ns : r.worker_cpu_ns) +=
            ns - it->second;
      }
    }
    if (closed) {
      const uint64_t peak = std::max(StatusBytes("VmHWM"), rss_start);
      r.rss_growth_mb = static_cast<double>(peak - rss_start) / (1 << 20);
    }
    if (traced) {
      r.push_p50_ns = Quantile(push_self_ns, 0.5);
      r.push_p99_ns = Quantile(push_self_ns, 0.99);
      r.counters = Delta(proc->metrics(), warm);
      r.state_bytes = proc->StateMemory();
      if (parallel != nullptr) {
        for (int i = 0; i < parallel->num_shards(); ++i) {
          r.shard_arrivals.push_back(parallel->shard(i)->metrics().arrivals);
        }
      }
    }
    r.digest_ok = sink.digest() == in.expected;
    return r;
  }

 private:
  struct Input {
    std::vector<BaseTuple> tuples;
    OutputDigest expected;
  };

  const Input& At(int round) const {
    return inputs_[static_cast<size_t>(round) % inputs_.size()];
  }

  // Whether the chunk or latency segment starting at measured tuple `j`
  // is summarised. With transitions, only those that open with one count:
  // the cost and latency a migration causes would otherwise hide among
  // the plain tuples (below 1% of a segment's outputs).
  bool Counts(uint64_t j) const {
    return spec_.transition_every == 0 || TransitionBefore(spec_, j);
  }

  const WorkloadSpec& spec_;
  // Times set-up, the measured stage, chunks and the open-loop schedule.
  // Single-threaded, it is the thread's CPU clock: the one thread does all
  // the work, and time the host gives to other threads or guests does not
  // count. Sharded, the work runs on other threads, so it is wall time.
  Clock now_;
  // One per CPU the pass runs on: single-threaded, the one this thread is
  // pinned to; sharded, every allowed CPU.
  std::vector<HostSpeed> speeds_;

  // A host speed reading. Sharded, the mean of simultaneous readings, one
  // thread pinned to each allowed CPU, as the pass loads every CPU at once.
  double ReadSpeed() {
    if (speeds_.size() == 1) return speeds_[0].Measure();
    const std::vector<int> cpus = AllowedCpus();
    std::vector<double> v(std::min(speeds_.size(), cpus.size()));
    std::vector<std::thread> threads;
    for (size_t i = 0; i < v.size(); ++i) {
      threads.emplace_back([&, i] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        sched_setaffinity(0, sizeof one, &one);
        v[i] = speeds_[i].Measure();
      });
    }
    for (std::thread& t : threads) t.join();
    double sum = 0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  }
  std::vector<Input> inputs_;
  jisc::LogicalPlan initial_;
  jisc::LogicalPlan reversed_;
};

// Mean time per call of each OperatorState operation, from the replay.
struct ReplayResult {
  double insert_ns = 0;
  double probe_ns = 0;
  double remove_ns = 0;
  double vacuum_ns = 0;
};

// Drives one OperatorState through the sequence of calls the root join's
// left input (streams S0..Sn-2 of the initial left-deep plan) sees for this
// input: each arrival first removes the combinations containing the tuple
// its window displaces, then either inserts the new combinations it forms
// within the state's streams or, coming from Sn-1, probes the state once;
// tombstones are vacuumed after every event, as the executor does after
// each drain. Only the measured tuples are timed.
ReplayResult ReplayState(const WorkloadSpec& spec,
                         const std::vector<BaseTuple>& input, SpanLog* log) {
  const jisc::StreamSet state_streams((1ULL << (spec.streams - 1)) - 1);
  const jisc::StreamId prober = static_cast<jisc::StreamId>(spec.streams - 1);
  jisc::OperatorState state(state_streams, jisc::StateIndex::kHash);
  LiveIndex live(spec.streams, spec.window);
  std::vector<const jisc::Tuple*> matches;
  std::vector<jisc::Tuple> combos;

  uint64_t stats[4][2] = {};  // {calls, ns} for insert, probe, remove, vacuum
  auto timed = [&](int which, Layer layer, bool measured, uint64_t seq,
                   auto&& call) {
    const uint64_t a = measured ? NowNs() : 0;
    int h = measured ? log->Open(layer, a, -1, seq) : -1;
    call();
    if (!measured) return;
    const uint64_t b = NowNs();
    log->Close(h, layer, b, b - a, b - a);
    ++stats[which][0];
    stats[which][1] += b - a;
  };

  jisc::Stamp stamp = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    const BaseTuple& t = input[i];
    const bool measured = i >= spec.warmup_tuples;
    ++stamp;
    const BaseTuple* old = live.Admit(t);
    if (old != nullptr && state_streams.Contains(old->stream)) {
      timed(2, kStateRemove, measured, t.seq, [&] {
        state.RemoveContaining(old->seq, old->key, stamp, nullptr);
      });
    }
    if (t.stream == prober) {
      matches.clear();
      timed(1, kStateProbe, measured, t.seq,
            [&] { state.CollectMatchPtrs(t.key, stamp, &matches); });
    } else {
      combos.clear();
      live.ForEachCombination(
          t, state_streams, [&](const BaseTuple* const* parts, int n) {
            std::vector<BaseTuple> members;
            for (int k = 0; k < n; ++k) members.push_back(*parts[k]);
            combos.push_back(jisc::Tuple::FromParts(std::move(members), stamp));
          });
      for (const jisc::Tuple& c : combos) {
        timed(0, kStateInsert, measured, t.seq,
              [&] { state.Insert(c, stamp); });
      }
    }
    if (state.HasTombstones()) {
      timed(3, kStateVacuum, measured, t.seq, [&] { state.VacuumDirty(); });
    }
  }
  auto mean = [&](int which) {
    return stats[which][0] == 0 ? 0.0
                                : static_cast<double>(stats[which][1]) /
                                      static_cast<double>(stats[which][0]);
  };
  return ReplayResult{mean(0), mean(1), mean(2), mean(3)};
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  char buf[64];
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof buf, "%.6g", m.value);
    std::printf("  %-28s %14s %s\n", m.name.c_str(), buf, m.unit);
  }
  std::snprintf(buf, sizeof buf, "%.6g",
                attempted == 0 ? 0.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted));
  std::printf("  %-28s %14s ratio (%llu failed of %llu operations)\n",
              "error_rate", buf, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json << (i == 0 ? "" : ", ") << '"' << metrics[i].name
         << "\": {\"value\": " << buf << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
}

// Failure accounting shared by both modes: a digest mismatch fails every
// operation of the run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed_ops = 0;
  bool mismatch = false;

  void Add(const PassResult& r) {
    attempted += r.ops;
    failed_ops += r.failed_ops;
    mismatch = mismatch || !r.digest_ok;
  }
  uint64_t failed() const { return mismatch ? attempted : failed_ops; }
};

int RunEndToEnd(const WorkloadSpec& spec, Runner& runner, double seconds) {
  Tally tally;
  std::vector<double> tps, p50, p99, setup, rss, speeds;
  size_t closed_passes = 0, open_passes = 0;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (int round = 0; round < kMinRounds || NowNs() < deadline; ++round) {
    std::fprintf(stderr, "round %d:", round);
    for (int k = 0; k < spec.closed_passes; ++k, ++closed_passes) {
      PassResult closed = runner.Run(PassKind::kClosed, round, nullptr);
      tally.Add(closed);
      tps.insert(tps.end(), closed.chunk_tps.begin(), closed.chunk_tps.end());
      setup.push_back(closed.setup_s);
      rss.push_back(closed.rss_growth_mb);
      speeds.insert(speeds.end(), closed.speeds.begin(), closed.speeds.end());
      std::fprintf(stderr, " closed: setup %.4f s, rss %.2f MB, ",
                   closed.setup_s, closed.rss_growth_mb);
      if (!closed.speeds.empty()) {
        std::fprintf(stderr, "host speed %.3f, ", Median(closed.speeds));
      }
      std::fprintf(stderr, "chunk tuples/s:");
      for (double v : closed.chunk_tps) std::fprintf(stderr, " %.0f", v);
      std::fprintf(stderr, ";");
    }
    PassResult open = runner.Run(PassKind::kOpen, round, nullptr);
    ++open_passes;
    tally.Add(open);
    setup.push_back(open.setup_s);
    p50.insert(p50.end(), open.segment_p50_us.begin(),
               open.segment_p50_us.end());
    p99.insert(p99.end(), open.segment_p99_us.begin(),
               open.segment_p99_us.end());
    speeds.insert(speeds.end(), open.speeds.begin(), open.speeds.end());
    std::fprintf(stderr, " open: setup %.4f s, ", open.setup_s);
    if (!open.speeds.empty()) {
      std::fprintf(stderr, "host speed %.3f, ", Median(open.speeds));
    }
    std::fprintf(stderr, "segment p50/p99 us:");
    for (size_t i = 0; i < open.segment_p99_us.size(); ++i) {
      std::fprintf(stderr, " %.1f/%.1f", open.segment_p50_us[i],
                   open.segment_p99_us[i]);
    }
    std::fprintf(stderr, "\n");
  }
  std::printf("workload %s: %zu closed + %zu open passes of %llu tuples over "
              "%d inputs, throughput over %zu chunks, open loop at %.0f "
              "tuples/s, latency over %zu segments\n",
              spec.name, closed_passes, open_passes,
              static_cast<unsigned long long>(spec.pass_tuples), spec.inputs,
              tps.size(), spec.open_loop_rate, p99.size());
  if (!speeds.empty()) {
    std::printf("host speed: median %.4f of the reference host's over %zu "
                "readings\n",
                Median(speeds), speeds.size());
  }
  // Medians over the whole run: of every chunk's throughput, of every
  // segment's p50 and p99, of every set-up and of every closed pass's
  // memory.
  PrintResult(tally.failed() == 0, tally.attempted, tally.failed(),
              {{"throughput_tps", Median(tps), "1/s"},
               {"latency_p50_us", Median(p50), "us"},
               {"latency_p99_us", Median(p99), "us"},
               {"setup_s", Median(setup), "s"},
               {"peak_rss_mb", Median(rss), "MB"}});
  return 0;
}

int RunTraced(const WorkloadSpec& spec, Runner& runner, double seconds,
              const Args& args) {
  Tally tally;
  SpanLog log(kTraceSpanCapacity);
  const bool sharded = spec.shards > 1;

  PassResult open = runner.Run(PassKind::kOpen, 0, nullptr);
  tally.Add(open);

  std::vector<double> untraced_tps, traced_tps;
  std::vector<PassResult> traced;
  uint64_t coord_cpu_ns = 0, worker_cpu_ns = 0;
  double untraced_wall_s = 0;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (int round = 0; round < kMinRounds || NowNs() < deadline; ++round) {
    PassResult plain = runner.Run(PassKind::kClosed, round, nullptr);
    tally.Add(plain);
    untraced_tps.push_back(plain.tps);
    coord_cpu_ns += plain.coord_cpu_ns;
    worker_cpu_ns += plain.worker_cpu_ns;
    untraced_wall_s += plain.measure_s;
    PassResult t = runner.Run(PassKind::kTraced, round, &log);
    tally.Add(t);
    traced_tps.push_back(t.tps);
    traced.push_back(std::move(t));
  }
  ReplayResult replay = ReplayState(spec, runner.input(0), &log);

  auto med = [&](auto field) {
    std::vector<double> v;
    for (const PassResult& r : traced) v.push_back(field(r));
    return Median(v);
  };
  auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  // Counters summed over the traced passes, which cycle through the
  // inputs; per-pass figures divide by their number.
  auto total = [&](auto field) {
    double sum = 0;
    for (const PassResult& r : traced) {
      sum += static_cast<double>(field(r.counters));
    }
    return sum;
  };
  const double passes = static_cast<double>(traced.size());
  const double tuples = static_cast<double>(spec.pass_tuples) * passes;
  const double work_units =
      total([](const jisc::Metrics& m) { return m.WorkUnits(); });
  const double push_p50 = med([](const PassResult& r) { return r.push_p50_ns; });
  const double push_p99 = med([](const PassResult& r) { return r.push_p99_ns; });
  // Time doing the work: push self time single-threaded, the workers' CPU
  // time when sharded (the coordinator's push only enqueues). Each round's
  // untraced pass runs the same input as its traced one.
  double work_ns = static_cast<double>(worker_cpu_ns);
  if (!sharded) {
    work_ns = 0;
    for (const PassResult& r : traced) {
      work_ns += static_cast<double>(r.push_self_total_ns);
    }
  }
  double skew = 0;
  if (sharded) {
    const auto& arrivals = traced.back().shard_arrivals;
    uint64_t sum = 0, max = 0;
    for (uint64_t a : arrivals) {
      sum += a;
      max = std::max(max, a);
    }
    skew = ratio(static_cast<double>(max) * static_cast<double>(arrivals.size()),
                 static_cast<double>(sum));
  }
  auto only_sharded = [&](double v) { return sharded ? v : 0.0; };
  auto single_threaded = [&](double v) { return sharded ? 0.0 : v; };
  const double untraced_wall_ns = untraced_wall_s * 1e9;

  std::printf("workload %s (traced): %zu untraced + %zu traced closed passes "
              "of %llu tuples over %d inputs\n",
              spec.name, untraced_tps.size(), traced.size(),
              static_cast<unsigned long long>(spec.pass_tuples), spec.inputs);
  log.PrintSelfTimeTable(std::cout);
  std::cout.flush();
  if (!args.trace_dir.empty()) {
    std::string path = args.trace_dir + "/" + spec.name + "-seed" +
                       std::to_string(args.seed) + ".trace.json";
    log.WriteChromeTrace(path, std::string("jiscperf ") + spec.name);
    std::printf("chrome trace: %s\n", path.c_str());
  }
  PrintResult(
      tally.failed() == 0, tally.attempted, tally.failed(),
      {{"core.push_ns_p50", single_threaded(push_p50), "ns"},
       {"core.push_ns_p99", single_threaded(push_p99), "ns"},
       {"core.transition_ms_max",
        med([](const PassResult& r) { return r.transition_ms_max; }), "ms"},
       {"core.transition_ms_total",
        med([](const PassResult& r) { return r.transition_ms_total; }), "ms"},
       {"migration.completions",
        total([](const jisc::Metrics& m) { return m.completions.value(); }) /
            passes,
        "count"},
       {"migration.completion_inserts",
        total([](const jisc::Metrics& m) {
          return m.completion_inserts.value();
        }) / passes,
        "count"},
       {"migration.dedup_ratio",
        ratio(total([](const jisc::Metrics& m) {
                return m.completion_dedup_hits.value();
              }),
              total([](const jisc::Metrics& m) {
                return m.completion_inserts.value();
              })),
        "ratio"},
       {"migration.completion_push_s",
        med([](const PassResult& r) { return r.completion_push_s; }), "s"},
       {"exec.work_units_per_tuple", work_units / tuples, "count"},
       {"exec.outputs_per_tuple",
        total([](const jisc::Metrics& m) { return m.outputs.value(); }) /
            tuples,
        "count"},
       {"exec.ns_per_work_unit", ratio(work_ns, work_units), "ns"},
       {"state.entries_per_probe",
        ratio(total([](const jisc::Metrics& m) { return m.probe_entries.value(); }),
              total([](const jisc::Metrics& m) { return m.probes.value(); })),
        "count"},
       {"state.match_ratio",
        ratio(total([](const jisc::Metrics& m) { return m.matches.value(); }),
              total([](const jisc::Metrics& m) {
                return m.probe_entries.value();
              })),
        "ratio"},
       {"state.bytes",
        med([](const PassResult& r) {
          return static_cast<double>(r.state_bytes);
        }),
        "B"},
       {"state.insert_ns", replay.insert_ns, "ns"},
       {"state.probe_ns", replay.probe_ns, "ns"},
       {"state.remove_ns", replay.remove_ns, "ns"},
       {"state.vacuum_ns", replay.vacuum_ns, "ns"},
       {"parallel.push_ns_p50", only_sharded(push_p50), "ns"},
       {"parallel.push_ns_p99", only_sharded(push_p99), "ns"},
       {"parallel.barrier_ms",
        only_sharded(med([](const PassResult& r) { return r.barrier_ms; })),
        "ms"},
       {"parallel.coord_cpu_frac",
        only_sharded(ratio(static_cast<double>(coord_cpu_ns), untraced_wall_ns)),
        "ratio"},
       {"parallel.worker_cpu_frac",
        only_sharded(ratio(static_cast<double>(worker_cpu_ns),
                           untraced_wall_ns * spec.shards)),
        "ratio"},
       {"parallel.shard_skew", skew, "ratio"},
       {"ingress.lag_p99_us", Quantile(open.lag_ns, 0.99) / 1e3, "us"},
       {"ingress.lag_max_ms", Quantile(open.lag_ns, 1.0) / 1e6, "ms"},
       {"obs.trace_overhead_frac",
        1.0 - ratio(Quantile(traced_tps, 0.75), Quantile(untraced_tps, 0.75)),
        "ratio"}});
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: jiscperf --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (spec->shards <= 1) PinToIdlestCpu();
  Runner runner(*spec, args.seed);
  return args.trace ? RunTraced(*spec, runner, args.seconds, args)
                    : RunEndToEnd(*spec, runner, args.seconds);
}

}  // namespace
}  // namespace jiscperf

int main(int argc, char** argv) { return jiscperf::Main(argc, argv); }
