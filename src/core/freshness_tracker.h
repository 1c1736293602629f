#ifndef JISC_CORE_FRESHNESS_TRACKER_H_
#define JISC_CORE_FRESHNESS_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "types/tuple.h"

namespace jisc {

// Implements Definition 2 of the paper: after a plan transition, the first
// tuple of a stream carrying a given join-attribute value is *fresh*; later
// tuples with that (stream, value) are *attempted*. Fresh tuples trigger
// on-demand state completion; attempted tuples are guaranteed to find
// already-completed entries and skip it (Section 4.4).
//
// Backed by a per-stream map value -> generation of the last transition in
// which the value was attempted. The paper instead probes the stream's hash
// table with the last-transition timestamp; the explicit map is equivalent
// and remains correct when the earlier tuple has already expired from the
// window (see DESIGN.md, divergence 1).
class FreshnessTracker {
 public:
  explicit FreshnessTracker(int num_streams)
      : attempted_(static_cast<size_t>(num_streams)) {}

  // A new plan transition happened; every value becomes fresh again.
  void BumpGeneration() { ++generation_; }

  uint64_t generation() const { return generation_; }

  // Returns whether a tuple with `key` arriving on `stream` is fresh, and
  // marks the value attempted for the current generation.
  bool ClassifyAndMark(StreamId stream, JoinKey key) {
    auto& map = attempted_[stream];
    auto [it, inserted] = map.try_emplace(key, generation_);
    if (inserted) return true;
    bool fresh = it->second < generation_;
    it->second = generation_;
    return fresh;
  }

  // Non-mutating query: is the value still fresh on this stream? Used by
  // the sliding-window optimization of Section 4.4 (removals of attempted
  // values may stop at an incomplete state on no-match).
  bool IsFresh(StreamId stream, JoinKey key) const {
    const auto& map = attempted_[stream];
    auto it = map.find(key);
    return it == map.end() || it->second < generation_;
  }

 private:
  uint64_t generation_ = 0;
  std::vector<FlatMap<uint64_t>> attempted_;
};

}  // namespace jisc

#endif  // JISC_CORE_FRESHNESS_TRACKER_H_
