#ifndef JISC_COMMON_FLAT_MAP_H_
#define JISC_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace jisc {

// Open-addressing hash map keyed by int64_t, for the per-event path (state
// buckets, freshness marks) where node-based maps cost a cache miss per
// node.
//
//   - Linear probing over a power-of-two slot array, hashed with MixU64.
//   - Backward-shift deletion: an erase pulls the rest of its cluster back
//     over the hole, so there are no tombstones and an erase never rehashes
//     or changes capacity. Only an insert grows the table.
//   - A fixed maximum load of 7/8. A 3/4 bound doubles the scan states of
//     the `steady` benchmark, whose key counts sit just above 3/4 of their
//     table, and costs more memory than the node maps it replaces.
//
// Slots hold default-constructed values while empty; an erased slot's value
// is reset to V{} so a value's heap storage is released with it. Iteration
// walks the slot array, so the order is a pure function of the operation
// sequence (deterministic, but not sorted). Any insert or erase invalidates
// iterators and references. Erasing while iterating may revisit or skip
// entries when a cluster wraps the array end; collect the keys first.
template <typename V>
class FlatMap {
 public:
  struct Slot {
    int64_t first = 0;  // the key; never modify it through an iterator
    V second;
  };

  template <bool kConst>
  class Iter {
   public:
    using MapPtr = std::conditional_t<kConst, const FlatMap*, FlatMap*>;
    using Ref = std::conditional_t<kConst, const Slot&, Slot&>;
    using Ptr = std::conditional_t<kConst, const Slot*, Slot*>;

    Iter(MapPtr map, size_t i) : map_(map), i_(i) { SkipEmpty(); }

    Ref operator*() const { return map_->slots_[i_]; }
    Ptr operator->() const { return &map_->slots_[i_]; }
    Iter& operator++() {
      ++i_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }

   private:
    friend class FlatMap;
    void SkipEmpty() {
      while (i_ < map_->used_.size() && map_->used_[i_] == 0) ++i_;
    }
    MapPtr map_;
    size_t i_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, slots_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, slots_.size()); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }
  // Bytes held by the slot array and its occupancy bytes (not the values'
  // own heap storage).
  size_t table_bytes() const { return slots_.size() * (sizeof(Slot) + 1); }

  iterator find(int64_t key) { return iterator(this, FindIndex(key)); }
  const_iterator find(int64_t key) const {
    return const_iterator(this, FindIndex(key));
  }

  // Inserts {key, V(args...)} unless the key is present. Returns the
  // key's slot and whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(int64_t key, Args&&... args) {
    if (!slots_.empty()) {
      size_t i = Home(key);
      for (; used_[i] != 0; i = (i + 1) & mask_) {
        if (slots_[i].first == key) return {iterator(this, i), false};
      }
      if ((size_ + 1) * 8 <= slots_.size() * 7) {
        return {Place(i, key, std::forward<Args>(args)...), true};
      }
    }
    Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    size_t i = Home(key);
    while (used_[i] != 0) i = (i + 1) & mask_;
    return {Place(i, key, std::forward<Args>(args)...), true};
  }

  V& operator[](int64_t key) { return try_emplace(key).first->second; }

  void erase(iterator it) { EraseAt(it.i_); }
  size_t erase(int64_t key) {
    size_t i = FindIndex(key);
    if (i == slots_.size()) return 0;
    EraseAt(i);
    return 1;
  }

  // Empties the map and keeps its capacity.
  void clear() {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i] != 0) {
        used_[i] = 0;
        slots_[i].second = V{};
      }
    }
    size_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 8;

  size_t Home(int64_t key) const {
    return static_cast<size_t>(MixU64(static_cast<uint64_t>(key))) & mask_;
  }

  // Slot index of `key`, or slots_.size() when absent. The 7/8 load bound
  // guarantees an empty slot, so the probe terminates.
  size_t FindIndex(int64_t key) const {
    if (slots_.empty()) return 0;
    for (size_t i = Home(key); used_[i] != 0; i = (i + 1) & mask_) {
      if (slots_[i].first == key) return i;
    }
    return slots_.size();
  }

  template <typename... Args>
  iterator Place(size_t i, int64_t key, Args&&... args) {
    used_[i] = 1;
    slots_[i].first = key;
    slots_[i].second = V(std::forward<Args>(args)...);
    ++size_;
    return iterator(this, i);
  }

  // Backward-shift deletion: walk the cluster after the hole and move back
  // every entry whose home slot does not lie cyclically in (hole, j].
  void EraseAt(size_t hole) {
    for (size_t j = (hole + 1) & mask_; used_[j] != 0; j = (j + 1) & mask_) {
      size_t home = Home(slots_[j].first);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    used_[hole] = 0;
    slots_[hole].second = V{};
    --size_;
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old_slots(capacity);
    std::vector<uint8_t> old_used(capacity, 0);
    old_slots.swap(slots_);
    old_used.swap(used_);
    mask_ = capacity - 1;
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (old_used[i] == 0) continue;
      size_t j = Home(old_slots[i].first);
      while (used_[j] != 0) j = (j + 1) & mask_;
      used_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace jisc

#endif  // JISC_COMMON_FLAT_MAP_H_
