#ifndef JISC_EXEC_SINK_H_
#define JISC_EXEC_SINK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/metrics.h"
#include "obs/observability.h"
#include "types/tuple.h"

namespace jisc {

// Consumer of the query result stream. OnOutput delivers a new result
// combination; OnRetract withdraws a previously delivered one (its window
// slid away). Aggregating sinks (Section 4.7: unary operators on top of the
// QEP) use both.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void OnOutput(const Tuple& tuple, Stamp stamp) = 0;
  virtual void OnRetract(const Tuple& tuple, Stamp stamp) {
    (void)tuple;
    (void)stamp;
  }
};

// Counts outputs; optionally invokes a callback on each (latency probes).
class CountingSink : public Sink {
 public:
  CountingSink() = default;

  void OnOutput(const Tuple& tuple, Stamp stamp) override {
    (void)tuple;
    ++outputs_;
    if (on_output_) on_output_(tuple, stamp);
  }
  void OnRetract(const Tuple&, Stamp) override { ++retractions_; }

  void SetCallback(std::function<void(const Tuple&, Stamp)> cb) {
    on_output_ = std::move(cb);
  }

  uint64_t outputs() const { return outputs_; }
  uint64_t retractions() const { return retractions_; }

 private:
  uint64_t outputs_ = 0;
  uint64_t retractions_ = 0;
  std::function<void(const Tuple&, Stamp)> on_output_;
};

// Stores every output/retraction (tests and the reference comparison).
class CollectingSink : public Sink {
 public:
  void OnOutput(const Tuple& tuple, Stamp stamp) override {
    outputs_.push_back(tuple);
    output_stamps_.push_back(stamp);
  }
  void OnRetract(const Tuple& tuple, Stamp stamp) override {
    retractions_.push_back(tuple);
    (void)stamp;
  }

  const std::vector<Tuple>& outputs() const { return outputs_; }
  const std::vector<Stamp>& output_stamps() const { return output_stamps_; }
  const std::vector<Tuple>& retractions() const { return retractions_; }

  void Clear() {
    outputs_.clear();
    output_stamps_.clear();
    retractions_.clear();
  }

 private:
  std::vector<Tuple> outputs_;
  std::vector<Stamp> output_stamps_;
  std::vector<Tuple> retractions_;
};

// COUNT(*) over the result with retraction support: the paper's example of
// an aggregate on top of the QEP that is unaffected by plan transitions.
class CountAggregateSink : public Sink {
 public:
  void OnOutput(const Tuple&, Stamp) override { ++count_; }
  void OnRetract(const Tuple&, Stamp) override { --count_; }
  int64_t count() const { return count_; }

 private:
  int64_t count_ = 0;
};

// GROUP BY join-key COUNT(*) with retraction support.
class GroupCountSink : public Sink {
 public:
  void OnOutput(const Tuple& tuple, Stamp) override {
    counts_[tuple.key()] += 1;
  }
  void OnRetract(const Tuple& tuple, Stamp) override {
    auto it = counts_.find(tuple.key());
    if (it != counts_.end() && --it->second == 0) counts_.erase(it);
  }
  const std::map<JoinKey, int64_t>& counts() const { return counts_; }

 private:
  std::map<JoinKey, int64_t> counts_;
};

// SUM(payloads) over the live result with retraction support: every part's
// payload contributes once per live combination it appears in.
class SumAggregateSink : public Sink {
 public:
  void OnOutput(const Tuple& tuple, Stamp) override {
    for (const BaseTuple& p : tuple.parts()) sum_ += p.payload;
  }
  void OnRetract(const Tuple& tuple, Stamp) override {
    for (const BaseTuple& p : tuple.parts()) sum_ -= p.payload;
  }
  int64_t sum() const { return sum_; }

 private:
  int64_t sum_ = 0;
};

// Maintains per-key live-result counts and answers top-k queries -- a
// typical monitoring aggregate kept on top of the QEP (Section 4.7: unary
// operators are unaffected by plan transitions).
class TopKeysSink : public Sink {
 public:
  void OnOutput(const Tuple& tuple, Stamp) override {
    counts_[tuple.key()] += 1;
  }
  void OnRetract(const Tuple& tuple, Stamp) override {
    auto it = counts_.find(tuple.key());
    if (it != counts_.end() && --it->second == 0) counts_.erase(it);
  }

  // Keys with the k largest live counts, ties broken by smaller key.
  std::vector<std::pair<JoinKey, int64_t>> TopK(size_t k) const {
    std::vector<std::pair<JoinKey, int64_t>> all(counts_.begin(),
                                                 counts_.end());
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (all.size() > k) all.resize(k);
    return all;
  }

  size_t distinct_keys() const { return counts_.size(); }

 private:
  std::unordered_map<JoinKey, int64_t, I64Hash> counts_;
};

// Observability adapter: records each output's delay — the processor calls
// BeginEvent() when it admits an external event, and every output delivered
// before the next BeginEvent() is charged now - admission into
// obs->output_delay_ns. During a migration this captures exactly the
// paper's Fig. 10 output-delay quantity: an arrival whose probe triggers
// just-in-time completion (or that queued behind an eager state rebuild)
// delivers its outputs late, and the lateness lands in the histogram's
// tail. Single-threaded like the sinks it wraps; under the parallel
// executor each shard engine owns its own wrapper (its own admission
// clock) while the histogram they record into is shared and lock-free.
class OutputDelaySink : public Sink {
 public:
  // Both pointers must outlive the sink; wiring is deferred because the
  // owning processor constructs its sink chain before options are applied.
  void Wire(Sink* downstream, Observability* obs) {
    downstream_ = downstream;
    obs_ = obs;
  }

  // Marks the admission of the next external event.
  void BeginEvent() {
    if (obs_ != nullptr) admit_ns_ = obs_->trace.NowNs();
  }

  // Backdated admission mark: the event is charged from `ns` (an earlier
  // trace-clock reading) instead of now. The engine uses this to charge the
  // first post-transition event for the time the transition itself took —
  // its outputs were delayed by exactly that much wall time.
  void BeginEventAt(uint64_t ns) { admit_ns_ = ns; }

  void OnOutput(const Tuple& tuple, Stamp stamp) override {
    if (obs_ != nullptr) {
      obs_->output_delay_ns.Record(obs_->trace.NowNs() - admit_ns_);
    }
    downstream_->OnOutput(tuple, stamp);
  }
  void OnRetract(const Tuple& tuple, Stamp stamp) override {
    downstream_->OnRetract(tuple, stamp);
  }

 private:
  Sink* downstream_ = nullptr;
  Observability* obs_ = nullptr;
  uint64_t admit_ns_ = 0;
};

// Serializing adapter: makes any single-threaded sink safe to share across
// the shards of a parallel executor. Deliveries are mutually excluded, so
// the downstream sink observes a linearized output stream (ordering across
// shards is unspecified; within a caller's sequence of deliveries it is
// preserved). The downstream sink is reached only through the pt-guarded
// pointer, so the compiler rejects any future delivery path that forgets
// the lock.
class LockedSink {
 public:
  // One output or retraction held back for a later DeliverAll.
  struct Delivery {
    Tuple tuple;
    Stamp stamp = 0;
    bool retract = false;
  };

  explicit LockedSink(Sink* downstream) : downstream_(downstream) {}

  // Delivers at once when no other thread holds the lock; otherwise
  // delivers nothing and returns false.
  bool TryDeliver(const Tuple& tuple, Stamp stamp, bool retract) {
    if (!mu_.TryLock()) return false;
    Forward(tuple, stamp, retract);
    mu_.Unlock();
    return true;
  }

  // Delivers `count` deliveries in order under one lock hold.
  void DeliverAll(const Delivery* deliveries, size_t count) {
    MutexLock lk(&mu_);
    for (size_t i = 0; i < count; ++i) {
      Forward(deliveries[i].tuple, deliveries[i].stamp, deliveries[i].retract);
    }
  }

 private:
  void Forward(const Tuple& tuple, Stamp stamp, bool retract)
      JISC_REQUIRES(mu_) {
    if (retract) {
      downstream_->OnRetract(tuple, stamp);
    } else {
      downstream_->OnOutput(tuple, stamp);
    }
  }

  Sink* const downstream_ JISC_PT_GUARDED_BY(mu_);
  Mutex mu_;
};

// Duplicate-eliminating sink used by the Parallel Track strategy: while
// several plans run side by side, each result is produced once per plan
// that covers it. The sink counts, per live result identity, how many plans
// currently hold it: the first production is forwarded, the last
// withdrawal is forwarded, everything in between is suppressed. When a
// plan is discarded, NoteDiscard() releases its share of the counts (no
// user-visible retraction -- a surviving plan still covers the result).
// Lookup costs are charged to `metrics->dedup_checks` (the paper counts
// duplicate elimination as migration overhead).
class DedupSink : public Sink {
 public:
  explicit DedupSink(Sink* downstream) : downstream_(downstream) {}

  void set_metrics(Metrics* metrics) { metrics_ = metrics; }

  void OnOutput(const Tuple& tuple, Stamp stamp) override;
  void OnRetract(const Tuple& tuple, Stamp stamp) override;

  // A plan holding this live result was discarded.
  void NoteDiscard(const Tuple& tuple);

  // A new plan adopted this live result (hybrid migration copies root
  // state content): it now also retracts it on expiry.
  void NoteAdoption(const Tuple& tuple);

  size_t live_size() const { return counts_.size(); }

 private:
  Sink* downstream_;
  Metrics* metrics_ = nullptr;
  std::unordered_map<uint64_t, int, U64Hash> counts_;
};

}  // namespace jisc

#endif  // JISC_EXEC_SINK_H_
