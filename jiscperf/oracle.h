#ifndef JISCPERF_ORACLE_H_
#define JISCPERF_ORACLE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "types/tuple.h"

namespace jiscperf {

// What a run's sink must have seen: output and retraction counts plus an
// order-independent digest of each multiset (the wrapping sum of a hash of
// every combination's part sequence numbers in stream order). Arrival order
// across shards and plans does not change it; a missing, extra or wrong
// combination does.
struct OutputDigest {
  uint64_t outputs = 0;
  uint64_t retractions = 0;
  uint64_t output_sum = 0;
  uint64_t retraction_sum = 0;

  friend bool operator==(const OutputDigest&, const OutputDigest&) = default;
};

// Hash of one combination given its part seqs in ascending stream order.
uint64_t CombinationHash(const jisc::Seq* seqs, int n);

// The same hash over a delivered combination (parts are kept sorted by
// stream id).
uint64_t CombinationHash(const jisc::Tuple& tuple);

// Adds one combination to the digest.
inline void AddOutput(OutputDigest* d, uint64_t hash) {
  ++d->outputs;
  d->output_sum += hash;
}
inline void AddRetraction(OutputDigest* d, uint64_t hash) {
  ++d->retractions;
  d->retraction_sum += hash;
}

// The live contents of per-stream count windows, indexed by (stream, key):
// what an equi-join on the key holds after each arrival. Per-stream FIFO
// expiry is also per-(stream, key) FIFO, so each index list stays in
// arrival order. Admitted tuples must outlive the index.
class LiveIndex {
 public:
  LiveIndex(int streams, uint64_t window);

  // Appends `t` to its stream's window, first displacing that stream's
  // oldest tuple once the window is full. Returns the displaced tuple, or
  // nullptr.
  const jisc::BaseTuple* Admit(const jisc::BaseTuple& t);

  // Calls fn(parts, n) for every combination of `pivot` with live
  // same-key tuples of the other streams in `streams`; parts holds the n
  // members in ascending stream order, pivot included.
  template <typename Fn>
  void ForEachCombination(const jisc::BaseTuple& pivot, jisc::StreamSet streams,
                          Fn&& fn) const {
    const Bucket* lists[jisc::kMaxStreams] = {};
    for (jisc::StreamId s : streams.ToVector()) {
      if (s == pivot.stream) continue;
      auto it = keys_[s].find(pivot.key);
      if (it == keys_[s].end()) return;
      lists[s] = &it->second;
    }
    const jisc::BaseTuple* parts[jisc::kMaxStreams];
    Recurse(pivot, streams, lists, 0, 0, parts, fn);
  }

 private:
  using Bucket = std::deque<const jisc::BaseTuple*>;

  template <typename Fn>
  void Recurse(const jisc::BaseTuple& pivot, jisc::StreamSet streams,
               const Bucket* const* lists, int s, int n,
               const jisc::BaseTuple** parts, Fn& fn) const {
    if (s == streams_) {
      fn(static_cast<const jisc::BaseTuple* const*>(parts), n);
      return;
    }
    if (!streams.Contains(static_cast<jisc::StreamId>(s))) {
      Recurse(pivot, streams, lists, s + 1, n, parts, fn);
    } else if (s == pivot.stream) {
      parts[n] = &pivot;
      Recurse(pivot, streams, lists, s + 1, n + 1, parts, fn);
    } else {
      for (const jisc::BaseTuple* b : *lists[s]) {
        parts[n] = b;
        Recurse(pivot, streams, lists, s + 1, n + 1, parts, fn);
      }
    }
  }

  int streams_;
  uint64_t window_;
  std::vector<Bucket> windows_;
  std::vector<std::unordered_map<jisc::JoinKey, Bucket, jisc::I64Hash>> keys_;
};

// Expected digest of a `streams`-way equi-join on the key over count
// windows of `window` tuples per stream, fed `input` in order. Each arrival
// first expires its stream's oldest tuple once the window is full
// (retracting every live combination that contains it), then emits every
// combination of itself with live same-key tuples of the other streams.
// The cost is linear in the input plus the number of combinations.
OutputDigest ExpectedDigest(const std::vector<jisc::BaseTuple>& input,
                            int streams, uint64_t window);

}  // namespace jiscperf

#endif  // JISCPERF_ORACLE_H_
