#include "host_speed.h"

#include "spans.h"

namespace jiscperf {

namespace {

constexpr int kStreams = 4;
constexpr uint64_t kWindow = 10000;
constexpr uint64_t kKeys = 10000;
// Longer than the live tuples of all windows, so one item is never live
// twice when the input wraps around.
constexpr size_t kInputTuples = 1 << 16;
// Above what the windows need at their fullest (about 25 MB); pages are
// only touched as they are used.
constexpr size_t kArenaBytes = size_t{64} << 20;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

HostSpeed::HostSpeed()
    : arena_(new std::byte[kArenaBytes]),
      arena_resource_(arena_.get(), kArenaBytes),
      pool_(&arena_resource_),
      windows_(&pool_),
      keys_(&pool_) {
  for (int s = 0; s < kStreams; ++s) {
    windows_.emplace_back();
    keys_.emplace_back();
  }
  uint64_t rng = 0x5eed;
  input_.resize(kInputTuples);
  for (size_t i = 0; i < kInputTuples; ++i) {
    input_[i] = Item{static_cast<int>(SplitMix(&rng) % kStreams),
                     SplitMix(&rng) % kKeys, i + 1};
  }
  // Fills every window.
  while (next_ < kStreams * kWindow * 6 / 5) Admit(input_[next_++]);
}

void HostSpeed::Admit(const Item& t) {
  List& win = windows_[t.stream];
  if (win.size() >= kWindow) {
    const Item* oldest = win.front();
    win.pop_front();
    auto it = keys_[t.stream].find(oldest->key);
    it->second.pop_front();
    if (it->second.empty()) keys_[t.stream].erase(it);
    Walk(*oldest);
  }
  win.push_back(&t);
  keys_[t.stream][t.key].push_back(&t);
  Walk(t);
}

void HostSpeed::Walk(const Item& pivot) {
  const List* lists[kStreams] = {};
  for (int s = 0; s < kStreams; ++s) {
    if (s == pivot.stream) continue;
    auto it = keys_[s].find(pivot.key);
    if (it == keys_[s].end()) return;
    lists[s] = &it->second;
  }
  // Odometer over the other streams' lists.
  size_t pos[kStreams] = {};
  while (true) {
    uint64_t h = pivot.seq;
    for (int s = 0; s < kStreams; ++s) {
      if (s != pivot.stream) h = (h ^ (*lists[s])[pos[s]]->seq) * 0x9e3779b97f4a7c15ULL;
    }
    sum_ += h;
    int s = 0;
    for (; s < kStreams; ++s) {
      if (s == pivot.stream) continue;
      if (++pos[s] < lists[s]->size()) break;
      pos[s] = 0;
    }
    if (s == kStreams) return;
  }
}

double HostSpeed::Measure() {
  const uint64_t start = ThreadCpuNowNs();
  for (int i = 0; i < kTuplesPerReading; ++i) {
    if (next_ == input_.size()) next_ = 0;
    Admit(input_[next_++]);
  }
  const uint64_t ns = ThreadCpuNowNs() - start;
  // Keeps the walks from being optimised away.
  static volatile uint64_t keep;
  keep = sum_;
  return kReferenceNs / static_cast<double>(ns);
}

}  // namespace jiscperf
