#include "state/operator_state.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace jisc {

OperatorState::OperatorState(StreamSet id, StateIndex index)
    : id_(id), index_(index) {}

void OperatorState::IdList::push_back(RecordId id) {
  if (size_ == cap_) {
    RecordId* grown = new RecordId[2 * cap_];
    std::copy(begin(), end(), grown);
    if (on_heap()) delete[] heap_;
    heap_ = grown;
    cap_ *= 2;
  }
  data()[size_++] = id;
}

void OperatorState::IdList::Free() {
  if (on_heap()) delete[] heap_;
  size_ = 0;
  cap_ = kInline;
}

void OperatorState::IdList::TakeFrom(IdList* other) {
  size_ = other->size_;
  cap_ = other->cap_;
  if (other->on_heap()) {
    heap_ = other->heap_;
  } else {
    std::copy(other->inline_, other->inline_ + size_, inline_);
  }
  other->size_ = 0;
  other->cap_ = kInline;
}

std::unique_ptr<OperatorState> OperatorState::Clone() const {
  auto copy = std::make_unique<OperatorState>(id_, index_);
  for (const auto& [k, ids] : buckets_) {
    for (RecordId id : ids) {
      copy->Append(k, RecordParts(id), width_, Head(id).insert_stamp);
    }
  }
  copy->complete_ = complete_;
  copy->completed_keys_ = completed_keys_;
  return copy;
}

bool OperatorState::RecordContainsSeq(RecordId id, Seq seq) const {
  const BaseTuple* parts = RecordParts(id);
  for (size_t i = 0; i < width_; ++i) {
    if (parts[i].seq == seq) return true;
  }
  return false;
}

bool OperatorState::RecordEquals(RecordId id, Tuple::Parts parts) const {
  if (parts.size() != width_) return false;
  const BaseTuple* mine = RecordParts(id);
  for (size_t i = 0; i < width_; ++i) {
    if (mine[i].seq != parts[i].seq) return false;
  }
  return true;
}

void OperatorState::Materialize(RecordId id, Tuple* out) const {
  out->AssignSorted(RecordParts(id), width_, Head(id).insert_stamp);
}

void OperatorState::Append(JoinKey key, const BaseTuple* parts, size_t width,
                           Stamp insert_stamp) {
  if (stride_ == 0 || width != width_) {
    // Every combination a state stores has the same width: the first
    // record sets the stride, fixed while any record is held.
    JISC_CHECK(width > 0 && slab_.size() == free_ids_.size() * stride_);
    slab_.clear();
    free_ids_.clear();
    width_ = width;
    stride_ = RecordBytes(width);
  }
  RecordId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    const size_t records = slab_.size() / stride_;
    JISC_CHECK(records < std::numeric_limits<RecordId>::max());
    id = static_cast<RecordId>(records);
    slab_.resize(slab_.size() + stride_);
  }
  std::byte* rec = slab_.data() + id * stride_;
  new (rec) RecordHead{insert_stamp};
  std::memcpy(rec + sizeof(RecordHead), parts, width * sizeof(BaseTuple));
  buckets_[key].push_back(id);
  ++live_size_;
}

bool OperatorState::Insert(const Tuple& tuple, Stamp insert_stamp,
                           bool dedup) {
  const Tuple::Parts parts = tuple.parts();
  if (dedup && ContainsExactLive(tuple)) return false;
  Append(tuple.key(), parts.data(), parts.size(), insert_stamp);
  return true;
}

int OperatorState::UnlinkContaining(IdList* bucket, Seq seq,
                                    std::vector<Tuple>* removed) {
  int count = 0;
  bucket->RemoveIf([&](RecordId id) {
    if (!RecordContainsSeq(id, seq)) return false;
    if (removed != nullptr) Materialize(id, &removed->emplace_back());
    free_ids_.push_back(id);
    ++count;
    return true;
  });
  live_size_ -= static_cast<size_t>(count);
  return count;
}

int OperatorState::RemoveContaining(Seq seq, JoinKey key, Stamp stamp,
                                    std::vector<Tuple>* removed) {
  (void)stamp;
  if (index_ == StateIndex::kHash) {
    // Equi-join combinations share the key of every part, so combinations
    // containing `seq` can only live in this key's bucket.
    auto it = buckets_.find(key);
    if (it == buckets_.end()) return 0;
    const int count = UnlinkContaining(&it->second, seq, removed);
    if (it->second.empty()) buckets_.erase(it);
    return count;
  }
  // Erasing shifts a cluster's tail back over the hole, and a cluster may
  // wrap the table's end: collect the emptied keys, then erase them.
  int count = 0;
  std::vector<JoinKey> emptied;
  for (auto& [k, ids] : buckets_) {
    count += UnlinkContaining(&ids, seq, removed);
    if (ids.empty()) emptied.push_back(k);
  }
  for (JoinKey k : emptied) buckets_.erase(k);
  return count;
}

size_t OperatorState::TakeLiveByKey(JoinKey key, std::vector<Tuple>* out) {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return 0;
  const IdList& ids = it->second;
  for (RecordId id : ids) {
    Materialize(id, &out->emplace_back());
    free_ids_.push_back(id);
  }
  const size_t count = ids.size();
  live_size_ -= count;
  buckets_.erase(it);
  return count;
}

void OperatorState::Clear() {
  buckets_.clear();
  slab_.clear();
  free_ids_.clear();
  probe_scratch_.clear();
  live_size_ = 0;
  completed_keys_.clear();
}

void OperatorState::CollectMatches(JoinKey key, Stamp p,
                                   std::vector<Tuple>* out) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  for (RecordId id : it->second) {
    if (Head(id).VisibleAt(p)) Materialize(id, &out->emplace_back());
  }
}

void OperatorState::CollectMatchPtrs(JoinKey key, Stamp p,
                                     std::vector<const Tuple*>* out) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  size_t n = 0;
  for (RecordId id : it->second) {
    if (!Head(id).VisibleAt(p)) continue;
    if (n == probe_scratch_.size()) probe_scratch_.emplace_back();
    Materialize(id, &probe_scratch_[n++]);
  }
  // Taken after the loop: growing the scratch moves its tuples.
  for (size_t i = 0; i < n; ++i) out->push_back(&probe_scratch_[i]);
}

void OperatorState::ForEachVisible(
    Stamp p, const std::function<void(const Tuple&)>& fn) const {
  Tuple t;
  for (const auto& [k, ids] : buckets_) {
    (void)k;
    for (RecordId id : ids) {
      if (!Head(id).VisibleAt(p)) continue;
      Materialize(id, &t);
      fn(t);
    }
  }
}

void OperatorState::ForEachLive(
    const std::function<void(const Tuple&)>& fn) const {
  Tuple t;
  for (const auto& [k, ids] : buckets_) {
    (void)k;
    for (RecordId id : ids) {
      Materialize(id, &t);
      fn(t);
    }
  }
}

void OperatorState::ForEachLiveEntryCanonical(
    const std::function<void(const Tuple&, Stamp)>& fn) const {
  std::vector<RecordId> live;
  live.reserve(live_size_);
  // jisc-verify: allow(determinism) — gathered entries are sorted below
  for (const auto& [k, ids] : buckets_) {
    (void)k;
    live.insert(live.end(), ids.begin(), ids.end());
  }
  std::sort(live.begin(), live.end(), [this](RecordId a, RecordId b) {
    const Stamp as = Head(a).insert_stamp;
    const Stamp bs = Head(b).insert_stamp;
    if (as != bs) return as < bs;
    const BaseTuple* ap = RecordParts(a);
    const BaseTuple* bp = RecordParts(b);
    for (size_t i = 0; i < width_; ++i) {
      if (ap[i].seq != bp[i].seq) return ap[i].seq < bp[i].seq;
      if (ap[i].stream != bp[i].stream) return ap[i].stream < bp[i].stream;
    }
    return false;
  });
  Tuple t;
  for (RecordId id : live) {
    Materialize(id, &t);
    fn(t, Head(id).insert_stamp);
  }
}

bool OperatorState::ContainsKeyLive(JoinKey key) const {
  auto it = buckets_.find(key);
  return it != buckets_.end();
}

void OperatorState::CollectLiveByKey(JoinKey key,
                                     std::vector<Tuple>* out) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  for (RecordId id : it->second) Materialize(id, &out->emplace_back());
}

void OperatorState::CollectLiveByKeyWithStamps(
    JoinKey key, std::vector<std::pair<Tuple, Stamp>>* out) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  for (RecordId id : it->second) {
    Materialize(id, &out->emplace_back(Tuple(), Head(id).insert_stamp).first);
  }
}

bool OperatorState::ContainsExactLive(const Tuple& tuple) const {
  auto it = buckets_.find(tuple.key());
  if (it == buckets_.end()) return false;
  for (RecordId id : it->second) {
    if (RecordEquals(id, tuple.parts())) return true;
  }
  return false;
}

uint64_t OperatorState::ApproxBytes() const {
  // Mirrors exec/validate.cc StateBytes: one record per entry, and the
  // bucket table's slot array.
  return static_cast<uint64_t>(live_size_) * RecordBytes(width_) +
         TableBytes();
}

std::vector<JoinKey> OperatorState::LiveKeys() const {
  std::vector<JoinKey> keys;
  keys.reserve(buckets_.size());
  for (const auto& [k, ids] : buckets_) {
    (void)ids;
    keys.push_back(k);
  }
  return keys;
}

void OperatorState::MarkComplete() {
  complete_ = true;
  completed_keys_.clear();
}

void OperatorState::MarkIncomplete() { complete_ = false; }

bool OperatorState::IsKeyCompleted(JoinKey key) const {
  return completed_keys_.find(key) != completed_keys_.end();
}

void OperatorState::MarkKeyCompleted(JoinKey key) {
  completed_keys_.insert(key);
}

std::vector<JoinKey> OperatorState::CompletedKeysSorted() const {
  std::vector<JoinKey> keys(completed_keys_.begin(), completed_keys_.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string OperatorState::DebugString() const {
  std::ostringstream os;
  os << "State " << id_.ToString() << (complete_ ? " [complete]" : " [INCOMPLETE]")
     << " live=" << live_size_ << " keys=" << buckets_.size();
  return os.str();
}

}  // namespace jisc
