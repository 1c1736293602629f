#ifndef JISC_EXEC_METRICS_H_
#define JISC_EXEC_METRICS_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace jisc {

// One deterministic work counter. Every Metrics has exactly one writer
// thread (its engine's thread; a ParallelExecutor's merged view is written
// by the coordinator only), so an update is a relaxed load plus a relaxed
// store: no read-modify-write is needed, and on x86 it compiles to plain
// moves instead of a lock-prefixed add. The value is still an atomic, so
// any other thread may read it without a data race (the parallel
// executor's MetricsApprox does). A second writer thread would lose
// updates. Note this makes the individual counter reads race-free, not
// every metrics entry point: which entry points belong to the coordinator
// thread is declared (and lint-enforced) by JISC_COORDINATOR_ONLY on the
// entry point itself — see ParallelExecutor, whose quiescing metrics()
// carries the marker while MetricsApprox() is the thread-safe alternative.
// Counters are value types: copying snapshots the current count, which
// keeps Metrics copyable for before/after deltas in benches and tests.
class Counter {
 public:
  constexpr Counter() = default;
  // Implicit by design: counters initialize/compare against integer
  // literals throughout benches and tests.
  // NOLINTNEXTLINE(google-explicit-constructor)
  constexpr Counter(uint64_t v) : v_(v) {}
  Counter(const Counter& o) : v_(o.value()) {}
  Counter& operator=(const Counter& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  Counter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  Counter& operator++() { return *this += 1; }
  Counter& operator--() {
    v_.store(value() - 1, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator+=(uint64_t d) {
    v_.store(value() + d, std::memory_order_relaxed);
    return *this;
  }

  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator uint64_t() const { return value(); }

  friend std::ostream& operator<<(std::ostream& os, const Counter& c) {
    return os << c.value();
  }

 private:
  std::atomic<uint64_t> v_{0};
};

// Deterministic work counters maintained by the executor. Benchmarks report
// both wall time and these counters; the counters make the figures'
// *shapes* reproducible independently of machine noise. Each engine (and
// each shard of a parallel executor) owns one Metrics and is its only
// writer; reads are atomic, so cross-shard aggregation never races with
// in-flight work.
//
// Snapshot-consistency contract (what copying a Metrics means while
// workers are incrementing, i.e. what ParallelExecutor::MetricsApprox()
// returns): the copy is member-wise, one atomic load per counter, so
//  (1) every individual counter value is an exact point-in-time read —
//      never torn, never partial;
//  (2) the counters are NOT mutually consistent — `matches` may already
//      reflect an event whose `probes` increment was read a moment
//      earlier; derived sums (WorkUnits) inherit this slack; and
//  (3) because execution only ever increments these counters, each
//      counter — and therefore WorkUnits() — is monotonically
//      non-decreasing across successive approx snapshots. Monitoring
//      loops may rely on (3); anything needing cross-counter exactness
//      must quiesce first (the JISC_COORDINATOR_ONLY metrics() path).
// Locked in by parallel_test.cc (MetricsApproxTotalsAreMonotone).
struct Metrics {
  Counter arrivals;          // base tuples admitted
  Counter messages;          // operator queue messages processed
  Counter probes;            // state probes issued by operators
  Counter probe_entries;     // entries examined during probes
  Counter matches;           // successful matches
  Counter inserts;           // state insertions
  Counter removals;          // state entry removals (expiry/suppression)
  Counter outputs;           // tuples delivered to the sink
  Counter retractions;       // retractions delivered to the sink
  Counter completions;       // JISC per-key state completions performed
  Counter completion_inserts;  // entries materialized by completion
  Counter completion_dedup_hits;
  Counter eddy_visits;       // eddy routing hops (CACQ/STAIRs)
  Counter dedup_checks;      // Parallel Track sink dedup lookups
  Counter purge_scan_entries;  // entries scanned by purge detection

  // Scalar proxy for total work, used as the "running time" shape metric.
  uint64_t WorkUnits() const {
    return messages + probes + probe_entries + inserts + removals +
           completion_inserts + eddy_visits + dedup_checks +
           purge_scan_entries;
  }

  void Reset() { *this = Metrics{}; }

  Metrics& operator+=(const Metrics& o);

  std::string ToString() const;

  // Name/value snapshot of every counter, declaration order. This is the
  // bridge to the metrics JSON exporter (obs/trace_export.h), which takes
  // plain pairs so the obs library never depends on exec. Reads follow the
  // per-counter contract above.
  std::vector<std::pair<std::string, uint64_t>> NamedCounters() const;
};

}  // namespace jisc

#endif  // JISC_EXEC_METRICS_H_
