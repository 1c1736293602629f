#ifndef JISCPERF_SPANS_H_
#define JISCPERF_SPANS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace jiscperf {

// Layer boundaries the benchmark times from outside the engine: each span
// wraps one call into a layer's public API.
enum Layer : int {
  kCorePush,         // StreamProcessor::Push, single-threaded engine
  kSinkEmit,         // the benchmark sink's callback, nested in a push
  kCoreTransition,   // StreamProcessor::RequestTransition
  kParallelPush,     // ParallelExecutor::Push (coordinator enqueue)
  kParallelBarrier,  // ParallelExecutor::Barrier (final quiesce)
  kStateInsert,      // OperatorState::Insert (replay)
  kStateProbe,       // OperatorState::CollectMatchPtrs (replay)
  kStateRemove,      // OperatorState::RemoveContaining (replay)
  kStateVacuum,      // OperatorState::VacuumDirty (replay)
  kNumLayers,
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// CPU time of the calling thread. It stands still while the thread is not
// running: while the kernel runs another thread on its CPU, and, in a guest
// whose kernel accounts steal time, while the hypervisor runs another guest.
// A read costs about 0.25 us (a system call), against 0.03 us for NowNs.
inline uint64_t ThreadCpuNowNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Spans kept in memory for the Chrome trace, plus exact per-layer totals.
// Totals cover every span; only the first `capacity` spans are kept for
// the trace file, so a long run stays bounded in memory.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  // Starts a span; returns its handle, or -1 once the log is full (Close
  // then only updates totals).
  int Open(Layer layer, uint64_t start_ns, int parent, uint64_t tuple) {
    if (spans_.size() >= capacity_) return -1;
    spans_.push_back(Span{layer, start_ns, start_ns, parent, tuple});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Ends a span. `self_ns` is its duration minus the time its children
  // covered (the caller knows the nesting).
  void Close(int handle, Layer layer, uint64_t end_ns, uint64_t dur_ns,
             uint64_t self_ns) {
    if (handle >= 0) spans_[static_cast<size_t>(handle)].end_ns = end_ns;
    LayerTotal& t = totals_[layer];
    ++t.calls;
    t.total_ns += dur_ns;
    t.self_ns += self_ns;
  }

  struct LayerTotal {
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  // One row per layer that recorded a span: calls, total, self time and
  // share of all self time.
  void PrintSelfTimeTable(std::ostream& os) const;

  // Writes the kept spans through obs/trace_export's Chrome trace_event
  // writer. Nesting (the parent link) becomes the span depth; the tuple id
  // is the span's "tuple" argument.
  void WriteChromeTrace(const std::string& path,
                        const std::string& process_name) const;

 private:
  struct Span {
    Layer layer;
    uint64_t start_ns;
    uint64_t end_ns;
    int parent;
    uint64_t tuple;
  };

  size_t capacity_;
  std::vector<Span> spans_;
  LayerTotal totals_[kNumLayers];
};

}  // namespace jiscperf

#endif  // JISCPERF_SPANS_H_
