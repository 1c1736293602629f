#include "state/operator_state.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace jisc {

OperatorState::OperatorState(StreamSet id, StateIndex index)
    : id_(id), index_(index) {}

std::unique_ptr<OperatorState> OperatorState::Clone() const {
  auto copy = std::make_unique<OperatorState>(id_, index_);
  for (const auto& [k, b] : buckets_) {
    (void)k;
    for (const Entry& e : b.entries) {
      if (e.live()) copy->Insert(e.tuple, e.insert_stamp);
    }
  }
  copy->complete_ = complete_;
  copy->completed_keys_ = completed_keys_;
  return copy;
}

void OperatorState::NoteInsert(Bucket* b) {
  if (b->live == 0) ++live_keys_;
  ++b->live;
  ++live_size_;
}

void OperatorState::NoteRemove(JoinKey key, Bucket* b) {
  JISC_DCHECK(b->live > 0);
  --b->live;
  --live_size_;
  if (b->live == 0) --live_keys_;
  // Queue the bucket once per vacuum cycle: one compaction pass then
  // covers every entry removed from it, however many there are.
  if (!b->dirty) {
    b->dirty = true;
    dirty_keys_.push_back(key);
  }
}

bool OperatorState::Insert(Tuple tuple, Stamp insert_stamp, bool dedup) {
  Bucket& b = buckets_[tuple.key()];
  if (dedup) {
    for (const Entry& e : b.entries) {
      if (e.live() && e.tuple == tuple) return false;
    }
  }
  b.entries.push_back(Entry{std::move(tuple), insert_stamp});
  NoteInsert(&b);
  return true;
}

int OperatorState::RemoveContaining(Seq seq, JoinKey key, Stamp remove_stamp,
                                    std::vector<Tuple>* removed) {
  int count = 0;
  auto scan_bucket = [&](JoinKey k, Bucket& b) {
    for (Entry& e : b.entries) {
      if (e.live() && e.tuple.ContainsSeq(seq)) {
        e.remove_stamp = remove_stamp;
        NoteRemove(k, &b);
        if (removed != nullptr) removed->push_back(e.tuple);
        ++count;
      }
    }
  };
  if (index_ == StateIndex::kHash) {
    // Equi-join combinations share the key of every part, so combinations
    // containing `seq` can only live in this key's bucket.
    auto it = buckets_.find(key);
    if (it != buckets_.end()) scan_bucket(key, it->second);
  } else {
    for (auto& [k, b] : buckets_) scan_bucket(k, b);
  }
  return count;
}

bool OperatorState::RemoveExact(const Tuple& tuple, Stamp remove_stamp) {
  auto it = buckets_.find(tuple.key());
  if (it == buckets_.end()) return false;
  for (Entry& e : it->second.entries) {
    if (e.live() && e.tuple == tuple) {
      e.remove_stamp = remove_stamp;
      NoteRemove(tuple.key(), &it->second);
      return true;
    }
  }
  return false;
}

void OperatorState::VacuumBucket(Bucket* bucket) {
  auto& entries = bucket->entries;
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [](const Entry& e) { return !e.live(); }),
                entries.end());
  bucket->dirty = false;
}

void OperatorState::Vacuum() {
  // Erasing shifts a cluster's tail back over the hole, and a cluster may
  // wrap the table's end: collect the emptied keys, then erase them.
  std::vector<JoinKey> emptied;
  for (auto& [k, b] : buckets_) {
    VacuumBucket(&b);
    if (b.entries.empty()) emptied.push_back(k);
  }
  for (JoinKey k : emptied) buckets_.erase(k);
  dirty_keys_.clear();
}

void OperatorState::VacuumDirty() {
  for (JoinKey key : dirty_keys_) {
    auto it = buckets_.find(key);
    if (it == buckets_.end()) continue;
    VacuumBucket(&it->second);
    if (it->second.entries.empty()) buckets_.erase(it);
  }
  dirty_keys_.clear();
}

void OperatorState::Clear() {
  buckets_.clear();
  dirty_keys_.clear();
  live_size_ = 0;
  live_keys_ = 0;
  completed_keys_.clear();
}

void OperatorState::CollectMatches(JoinKey key, Stamp p,
                                   std::vector<Tuple>* out) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  for (const Entry& e : it->second.entries) {
    if (e.VisibleAt(p)) out->push_back(e.tuple);
  }
}

void OperatorState::CollectMatchPtrs(JoinKey key, Stamp p,
                                     std::vector<const Tuple*>* out) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  for (const Entry& e : it->second.entries) {
    if (e.VisibleAt(p)) out->push_back(&e.tuple);
  }
}

void OperatorState::ForEachVisible(
    Stamp p, const std::function<void(const Tuple&)>& fn) const {
  for (const auto& [k, b] : buckets_) {
    (void)k;
    for (const Entry& e : b.entries) {
      if (e.VisibleAt(p)) fn(e.tuple);
    }
  }
}

void OperatorState::ForEachLive(
    const std::function<void(const Tuple&)>& fn) const {
  for (const auto& [k, b] : buckets_) {
    (void)k;
    for (const Entry& e : b.entries) {
      if (e.live()) fn(e.tuple);
    }
  }
}

void OperatorState::ForEachLiveEntryCanonical(
    const std::function<void(const Tuple&, Stamp)>& fn) const {
  std::vector<std::pair<const Entry*, Stamp>> live;
  live.reserve(live_size_);
  // jisc-verify: allow(determinism) — gathered entries are sorted below
  for (const auto& [k, b] : buckets_) {
    (void)k;
    for (const Entry& e : b.entries) {
      if (e.live()) live.emplace_back(&e, e.insert_stamp);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              const auto& ap = a.first->tuple.parts();
              const auto& bp = b.first->tuple.parts();
              if (ap.size() != bp.size()) return ap.size() < bp.size();
              for (size_t i = 0; i < ap.size(); ++i) {
                if (ap[i].seq != bp[i].seq) return ap[i].seq < bp[i].seq;
                if (ap[i].stream != bp[i].stream) {
                  return ap[i].stream < bp[i].stream;
                }
              }
              return false;
            });
  for (const auto& [e, stamp] : live) fn(e->tuple, stamp);
}

bool OperatorState::ContainsKeyLive(JoinKey key) const {
  auto it = buckets_.find(key);
  return it != buckets_.end() && it->second.live > 0;
}

void OperatorState::CollectLiveByKey(JoinKey key,
                                     std::vector<Tuple>* out) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  for (const Entry& e : it->second.entries) {
    if (e.live()) out->push_back(e.tuple);
  }
}

void OperatorState::CollectLiveByKeyWithStamps(
    JoinKey key, std::vector<std::pair<Tuple, Stamp>>* out) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  for (const Entry& e : it->second.entries) {
    if (e.live()) out->emplace_back(e.tuple, e.insert_stamp);
  }
}

bool OperatorState::ContainsExactLive(const Tuple& tuple) const {
  auto it = buckets_.find(tuple.key());
  if (it == buckets_.end()) return false;
  for (const Entry& e : it->second.entries) {
    if (e.live() && e.tuple == tuple) return true;
  }
  return false;
}

uint64_t OperatorState::ApproxBytes() const {
  // Mirrors exec/validate.cc StateBytes: per live entry the combination
  // record plus its insert/remove stamps plus `arity` base-tuple parts, and
  // the bucket table's slot array. Exact for this state layout because
  // every combination of a subtree has the same width.
  const uint64_t arity = static_cast<uint64_t>(id_.size());
  const uint64_t per_entry =
      sizeof(Tuple) + 2 * sizeof(Stamp) + arity * sizeof(BaseTuple);
  return static_cast<uint64_t>(live_size_) * per_entry + TableBytes();
}

std::vector<JoinKey> OperatorState::LiveKeys() const {
  std::vector<JoinKey> keys;
  keys.reserve(live_keys_);
  for (const auto& [k, b] : buckets_) {
    if (b.live > 0) keys.push_back(k);
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
     << " live=" << live_size_ << " keys=" << live_keys_;
  return os.str();
}

}  // namespace jisc
