#ifndef JISC_STATE_OPERATOR_STATE_H_
#define JISC_STATE_OPERATOR_STATE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/hash.h"
#include "types/tuple.h"

namespace jisc {

// How a state is organized.
enum class StateIndex {
  kHash,  // hash multimap on the equi-join attribute (symmetric hash join)
  kList,  // unindexed list, probed by linear scan (nested-loops theta join)
};

// The materialized output of one plan operator: every live join combination
// (or, for a scan, every live window tuple) of its subtree.
//
// Identity: the StreamSet of the subtree (the paper's "State RS" etc.).
//
// Visibility model: each entry carries the global event stamp at which it was
// inserted and (once removed) the stamp at which it was removed. A join probe
// issued by a tuple born at stamp p sees exactly the entries with
// insert < p < remove. This yields exactly-once pair generation in a
// symmetric pipeline (the later tuple of a pair produces it) and makes the
// output independent of intra-event scheduling. Removed entries are
// physically erased by Vacuum(), which the engine calls between events.
//
// Layout: each entry is a fixed-stride record in one slab per state: its
// insert and remove stamps, then the combination's parts inline. The
// stride is the width the state stores, taken from its first insert: a
// join state stores combinations of all id().size() streams, but a semi
// join or set difference stores its outer tuples, which are narrower.
// Vacuumed record ids are reused. Records are grouped into per-key
// buckets, each an array of record ids in insertion order (up to two held
// inline in the bucket), and the buckets live in one open-addressing
// FlatMap keyed by the join attribute (common/flat_map.h). A bucket is
// queued for vacuum once per cycle however many of its entries are
// removed, so vacuum work is linear in the size of the touched buckets.
// Insert copies the combination's parts into a record; reads rebuild a
// Tuple from a record (birth = insert stamp, not fresh), which allocates
// nothing for combinations of up to Tuple::kInlineParts streams.
//
// Completeness (Definition 1) is a property of the state tracked here as a
// flag plus the set of join-attribute values whose entries have been
// completed on demand (Section 4); the decision logic lives in
// core/completion_tracker.h.
class OperatorState {
 public:
  OperatorState(StreamSet id, StateIndex index);

  OperatorState(const OperatorState&) = delete;
  OperatorState& operator=(const OperatorState&) = delete;

  // Deep copy of the live content (tombstones are not carried). Used by the
  // hybrid migration strategy, where old and new plan each need their own
  // copy of a shared state.
  std::unique_ptr<OperatorState> Clone() const;

  StreamSet id() const { return id_; }
  StateIndex index() const { return index_; }

  // --- mutation ---

  // Inserts a combination. When `dedup` is true the insert is skipped if an
  // identical live combination already exists (required during JISC state
  // completion, where the cross product may regenerate combinations that
  // already flowed in after the transition). Returns true if inserted.
  bool Insert(const Tuple& tuple, Stamp insert_stamp, bool dedup = false);

  // Tombstones every live combination containing base-tuple `seq` with key
  // `key` (expiry propagation). For hash states the search is confined to
  // the key's bucket; list states are scanned fully. Removed combinations
  // are appended to *removed (may be null). Returns the count.
  int RemoveContaining(Seq seq, JoinKey key, Stamp remove_stamp,
                       std::vector<Tuple>* removed);

  // Tombstones one specific live combination (set-difference suppression).
  // Returns true if found.
  bool RemoveExact(const Tuple& tuple, Stamp remove_stamp);

  // Physically erases tombstoned entries. Safe only between events (no
  // in-flight message may still probe at a stamp below a tombstone).
  void Vacuum();

  // Erases tombstones only from the buckets touched since the last vacuum;
  // O(size of touched buckets). The executor calls this after each drain.
  void VacuumDirty();

  bool HasTombstones() const { return !dirty_keys_.empty(); }
  // Keys queued for the next VacuumDirty(); each at most once.
  size_t PendingVacuumKeys() const { return dirty_keys_.size(); }

  // Drops everything (state discard at transition).
  void Clear();

  // --- probes ---

  // Appends the entries visible to a probe at stamp p with the given key.
  // Meaningful for kHash states.
  void CollectMatches(JoinKey key, Stamp p, std::vector<Tuple>* out) const;

  // Pointer flavor for the probe hot path: the matches are rebuilt into
  // scratch tuples this state owns and reuses, so a warm probe allocates
  // nothing. The pointers are valid until the next mutation of this state
  // or its next CollectMatchPtrs call; callers must consume them first.
  void CollectMatchPtrs(JoinKey key, Stamp p,
                        std::vector<const Tuple*>* out) const;

  // Visits every entry visible at stamp p (nested-loops probe, state
  // completion cross products). The tuple passed to `fn` is rebuilt for
  // the call and is valid only during it; copy it to keep it.
  void ForEachVisible(Stamp p, const std::function<void(const Tuple&)>& fn) const;

  // Visits every live (not yet removed) entry regardless of stamp
  // (set-difference membership, Moving State eager computation, snapshots).
  // As for ForEachVisible, the tuple is valid only during the call.
  void ForEachLive(const std::function<void(const Tuple&)>& fn) const;

  // Live entries with their insertion stamps, visited in a canonical
  // order — sorted by insertion stamp, ties broken by the part sequence —
  // so serializations built from this walk (checkpointing) are
  // byte-identical regardless of the hash table's iteration order.
  void ForEachLiveEntryCanonical(
      const std::function<void(const Tuple&, Stamp)>& fn) const;

  // Any live entry with this key? (set-difference membership test).
  bool ContainsKeyLive(JoinKey key) const;

  // Live entries with this key.
  void CollectLiveByKey(JoinKey key, std::vector<Tuple>* out) const;

  // Live entries with this key, with their insertion stamps, in insertion
  // order — the stamp-preserving flavor the fluid hybrid copy-in uses so
  // deferred copies replicate Clone()'s visibility exactly.
  void CollectLiveByKeyWithStamps(
      JoinKey key, std::vector<std::pair<Tuple, Stamp>>* out) const;

  // An identical live combination exists?
  bool ContainsExactLive(const Tuple& tuple) const;

  // --- statistics ---
  size_t live_size() const { return live_size_; }
  // Bytes of one record holding a combination of `width` parts: its two
  // stamps and the parts.
  static constexpr uint64_t RecordBytes(size_t width) {
    return 2 * sizeof(Stamp) + width * sizeof(BaseTuple);
  }
  // O(1) resident-bytes estimate from the incrementally-tracked counters:
  // every record of this state has the same stride, so record storage
  // follows from live_size() alone, plus the bucket table's footprint
  // (TableBytes()), as exec/validate.cc's exact walk charges. Cheap enough
  // for the telemetry gauge refresh on the hot path's maintain cadence,
  // where the ForEachLive walk is not.
  uint64_t ApproxBytes() const;
  // Bytes of the bucket table itself: its capacity times the slot size.
  uint64_t TableBytes() const { return buckets_.table_bytes(); }
  // Number of distinct keys with at least one live entry (the paper's
  // "number of distinct values of the join attribute inside the state",
  // used to initialize completion counters).
  size_t DistinctLiveKeys() const { return live_keys_; }
  std::vector<JoinKey> LiveKeys() const;

  // --- completeness bookkeeping (Definition 1 / Section 4.3) ---
  bool complete() const { return complete_; }
  void MarkComplete();
  void MarkIncomplete();
  bool IsKeyCompleted(JoinKey key) const;
  void MarkKeyCompleted(JoinKey key);
  size_t NumCompletedKeys() const { return completed_keys_.size(); }
  // Completed keys in sorted order — the canonical walk mid-migration
  // checkpoints serialize from, like ForEachLiveEntryCanonical for entries.
  std::vector<JoinKey> CompletedKeysSorted() const;

  std::string DebugString() const;

 private:
  using RecordId = uint32_t;

  // The fixed head of a record; the record's width_ parts follow it.
  struct RecordHead {
    Stamp insert_stamp;
    Stamp remove_stamp;

    bool live() const { return remove_stamp == kStampInfinity; }
    bool VisibleAt(Stamp p) const {
      return insert_stamp < p && p < remove_stamp;
    }
  };
  static_assert(sizeof(RecordHead) == 2 * sizeof(Stamp));

  // One bucket's record ids in insertion order: up to kInline inside the
  // object (most buckets hold one or two records), more in a heap array.
  class IdList {
   public:
    IdList() = default;
    IdList(IdList&& other) noexcept { TakeFrom(&other); }
    IdList& operator=(IdList&& other) noexcept {
      if (this != &other) {
        Free();
        TakeFrom(&other);
      }
      return *this;
    }
    ~IdList() { Free(); }

    const RecordId* begin() const { return data(); }
    const RecordId* end() const { return data() + size_; }
    bool empty() const { return size_ == 0; }

    void push_back(RecordId id);

    // Drops the ids for which `drop(id)` is true, keeping the order.
    template <typename Pred>
    void RemoveIf(Pred drop) {
      RecordId* ids = data();
      uint32_t kept = 0;
      for (uint32_t i = 0; i < size_; ++i) {
        if (!drop(ids[i])) ids[kept++] = ids[i];
      }
      size_ = kept;
    }

   private:
    static constexpr uint32_t kInline = 2;

    bool on_heap() const { return cap_ > kInline; }
    RecordId* data() { return on_heap() ? heap_ : inline_; }
    const RecordId* data() const { return on_heap() ? heap_ : inline_; }
    void Free();
    void TakeFrom(IdList* other);

    uint32_t size_ = 0;
    uint32_t cap_ = kInline;
    union {
      RecordId inline_[kInline] = {0, 0};
      RecordId* heap_;
    };
  };

  struct Bucket {
    IdList ids;
    uint32_t live = 0;
    bool dirty = false;  // queued in dirty_keys_ for the next vacuum
  };

  RecordHead& Head(RecordId id) {
    return *std::launder(
        reinterpret_cast<RecordHead*>(slab_.data() + id * stride_));
  }
  const RecordHead& Head(RecordId id) const {
    return *std::launder(
        reinterpret_cast<const RecordHead*>(slab_.data() + id * stride_));
  }
  const BaseTuple* RecordParts(RecordId id) const {
    return std::launder(reinterpret_cast<const BaseTuple*>(
        slab_.data() + id * stride_ + sizeof(RecordHead)));
  }
  bool RecordContainsSeq(RecordId id, Seq seq) const;
  bool RecordEquals(RecordId id, Tuple::Parts parts) const;
  // Rebuilds record `id` into *out, reusing its storage.
  void Materialize(RecordId id, Tuple* out) const;

  // Stores a new live record, reusing a freed id, in `key`'s bucket.
  void Append(JoinKey key, const BaseTuple* parts, size_t width,
              Stamp insert_stamp);

  void NoteInsert(Bucket* b);
  void NoteRemove(JoinKey key, Bucket* b);

  void VacuumBucket(Bucket* bucket);

  StreamSet id_;
  StateIndex index_;
  size_t width_ = 0;   // parts per record, set by the first insert
  size_t stride_ = 0;  // RecordBytes(width_); 0 before the first insert
  std::vector<std::byte> slab_;
  std::vector<RecordId> free_ids_;
  FlatMap<Bucket> buckets_;
  std::vector<JoinKey> dirty_keys_;
  // CollectMatchPtrs' rebuilt matches, reused across probes.
  mutable std::vector<Tuple> probe_scratch_;
  size_t live_size_ = 0;
  size_t live_keys_ = 0;
  bool complete_ = true;
  std::unordered_set<JoinKey, I64Hash> completed_keys_;
};

}  // namespace jisc

#endif  // JISC_STATE_OPERATOR_STATE_H_
