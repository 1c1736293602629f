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
// Single-version model: a state holds only its live entries. Each entry
// carries the global event stamp at which it was inserted, and a probe
// issued at stamp p sees exactly the entries with insert < p. A removal
// unlinks its entries in the pass that finds them, so a removed entry is
// gone for every later read. This is sound because an executor admits one
// external event at a time and drains it before the next (the executors
// check Idle() when an event is pushed): every message in flight carries
// the current stamp, so no probe can ask for a version older than the
// state's. An entry inserted at stamp s is invisible to every probe at s,
// so an operator may emit a combination before inserting it; the symmetric
// pipeline then produces each pair exactly once (the later tuple of the
// pair does) and the output does not depend on intra-event scheduling.
//
// Layout: each entry is a fixed-stride record in one slab per state: its
// insert stamp, then the combination's parts inline. The stride is the
// width the state stores, taken from its first insert: a join state stores
// combinations of all id().size() streams, but a semi join or set
// difference stores its outer tuples, which are narrower. A removal frees
// its record ids at once and the next inserts reuse them, so the slab
// stays at the state's peak live size. Records are grouped into per-key
// buckets, each an array of record ids in insertion order (up to two held
// inline in the bucket), and the buckets live in one open-addressing
// FlatMap keyed by the join attribute (common/flat_map.h); a bucket is
// erased when its last record goes. Insert copies the combination's parts
// into a record; reads rebuild a Tuple from a record (birth = insert
// stamp, not fresh), which allocates nothing for combinations of up to
// Tuple::kInlineParts streams.
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

  // Deep copy. Used by the hybrid migration strategy, where old and new
  // plan each need their own copy of a shared state.
  std::unique_ptr<OperatorState> Clone() const;

  StreamSet id() const { return id_; }
  StateIndex index() const { return index_; }

  // --- mutation ---

  // Inserts a combination. When `dedup` is true the insert is skipped if an
  // identical live combination already exists (required during JISC state
  // completion, where the cross product may regenerate combinations that
  // already flowed in after the transition). Returns true if inserted.
  bool Insert(const Tuple& tuple, Stamp insert_stamp, bool dedup = false);

  // Unlinks every combination containing base-tuple `seq` with key `key`
  // (expiry propagation), keeping the survivors' insertion order, freeing
  // the records and erasing buckets that empty. For hash states the search
  // is confined to the key's bucket; list states are scanned fully.
  // Removed combinations are appended to *removed (may be null). Returns
  // the count. The removal takes effect for every later read, whatever the
  // removing event's `stamp`.
  int RemoveContaining(Seq seq, JoinKey key, Stamp stamp,
                       std::vector<Tuple>* removed);

  // Moves every entry with this key to *out in insertion order, frees
  // their records and erases the bucket (set-difference and semi-join
  // suppression). Returns the count.
  size_t TakeLiveByKey(JoinKey key, std::vector<Tuple>* out);

  // Always false and a no-op: a removal leaves nothing behind. Both remain
  // only for the benchmark driver's OperatorState replay, which calls them.
  bool HasTombstones() const { return false; }
  void VacuumDirty() {}

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

  // Visits every entry regardless of stamp
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
  // Records the slab holds, in use or free: the state's peak live size
  // since its last Clear() or width change.
  size_t slab_records() const {
    return stride_ == 0 ? 0 : slab_.size() / stride_;
  }
  // Bytes of one record holding a combination of `width` parts: its
  // insert stamp and the parts.
  static constexpr uint64_t RecordBytes(size_t width) {
    return sizeof(Stamp) + width * sizeof(BaseTuple);
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
  size_t DistinctLiveKeys() const { return buckets_.size(); }
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

    bool VisibleAt(Stamp p) const { return insert_stamp < p; }
  };
  static_assert(sizeof(RecordHead) == sizeof(Stamp));

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
    uint32_t size() const { return size_; }

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

  // Stores a new record, reusing a freed id, in `key`'s bucket.
  void Append(JoinKey key, const BaseTuple* parts, size_t width,
              Stamp insert_stamp);
  // Drops the ids of `bucket` that contain `seq`, keeping the order and
  // freeing their records; rebuilds each into *removed when non-null.
  int UnlinkContaining(IdList* bucket, Seq seq, std::vector<Tuple>* removed);

  StreamSet id_;
  StateIndex index_;
  size_t width_ = 0;   // parts per record, set by the first insert
  size_t stride_ = 0;  // RecordBytes(width_); 0 before the first insert
  std::vector<std::byte> slab_;
  std::vector<RecordId> free_ids_;
  FlatMap<IdList> buckets_;  // never holds an empty bucket
  // CollectMatchPtrs' rebuilt matches, reused across probes.
  mutable std::vector<Tuple> probe_scratch_;
  size_t live_size_ = 0;
  bool complete_ = true;
  std::unordered_set<JoinKey, I64Hash> completed_keys_;
};

}  // namespace jisc

#endif  // JISC_STATE_OPERATOR_STATE_H_
