// Minimal stand-ins for the project types the jisc-verify checks key on.
// The fixtures are analyzed, never linked into the product; they only need
// to parse (textual frontend: token patterns; clang frontend: real AST).
#ifndef JISC_TESTS_STATIC_ANALYSIS_FIXTURES_FIXTURE_SUPPORT_H_
#define JISC_TESTS_STATIC_ANALYSIS_FIXTURES_FIXTURE_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#define JISC_COORDINATOR_ONLY __attribute__((annotate("jisc_coordinator_only")))
#define JISC_CHECK(cond) \
  if (!(cond)) ::abort(); else (void)0
#define JISC_GUARDED_BY(x)
#define JISC_PT_GUARDED_BY(x)

namespace fix {

struct Histogram {
  void Record(uint64_t) {}
};

struct TraceRecorder {
  uint64_t NowNs() { return 0; }
};

struct TelemetryRegistry {
  void AddInput(uint64_t) {}
  void NoteStall(int) {}
};

struct Observability {
  Histogram output_delay_ns;
  TraceRecorder trace;
  TelemetryRegistry* telemetry = nullptr;
};

class Mutex {
 public:
  void Lock() {}
  void Unlock() {}
};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() { mu_->Unlock(); }

 private:
  Mutex* mu_;
};

struct ByteWriter {
  void PutU64(uint64_t) {}
  std::string Take() { return ""; }
};

// Stand-in for the project's open-addressing map (common/flat_map.h): it
// iterates in slot order, which is hash order.
template <typename V>
class FlatMap {
 public:
  using Slots = std::unordered_map<int64_t, V>;
  typename Slots::const_iterator begin() const { return slots_.begin(); }
  typename Slots::const_iterator end() const { return slots_.end(); }

 private:
  Slots slots_;
};

}  // namespace fix

#endif  // JISC_TESTS_STATIC_ANALYSIS_FIXTURES_FIXTURE_SUPPORT_H_
