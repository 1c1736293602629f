#include "oracle.h"

#include "common/logging.h"

namespace jiscperf {

uint64_t CombinationHash(const jisc::Seq* seqs, int n) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  for (int i = 0; i < n; ++i) h = jisc::MixU64(h ^ seqs[i]);
  return h;
}

uint64_t CombinationHash(const jisc::Tuple& tuple) {
  jisc::Seq seqs[jisc::kMaxStreams];
  int n = 0;
  for (const jisc::BaseTuple& p : tuple.parts()) seqs[n++] = p.seq;
  return CombinationHash(seqs, n);
}

LiveIndex::LiveIndex(int streams, uint64_t window)
    : streams_(streams),
      window_(window),
      windows_(static_cast<size_t>(streams)),
      keys_(static_cast<size_t>(streams)) {
  JISC_CHECK(streams >= 1 && streams <= jisc::kMaxStreams);
}

const jisc::BaseTuple* LiveIndex::Admit(const jisc::BaseTuple& t) {
  JISC_CHECK(t.stream < streams_);
  Bucket& win = windows_[t.stream];
  const jisc::BaseTuple* oldest = nullptr;
  if (win.size() >= window_) {
    oldest = win.front();
    win.pop_front();
    auto it = keys_[t.stream].find(oldest->key);
    it->second.pop_front();
    if (it->second.empty()) keys_[t.stream].erase(it);
  }
  win.push_back(&t);
  keys_[t.stream][t.key].push_back(&t);
  return oldest;
}

OutputDigest ExpectedDigest(const std::vector<jisc::BaseTuple>& input,
                            int streams, uint64_t window) {
  LiveIndex live(streams, window);
  const jisc::StreamSet all((1ULL << streams) - 1);
  OutputDigest digest;
  auto hash = [](const jisc::BaseTuple* const* parts, int n) {
    jisc::Seq seqs[jisc::kMaxStreams];
    for (int i = 0; i < n; ++i) seqs[i] = parts[i]->seq;
    return CombinationHash(seqs, n);
  };
  for (const jisc::BaseTuple& t : input) {
    // The displaced tuple is on t's stream, so its combinations never
    // include t and t's never include it: the order of the two walks
    // below does not matter.
    if (const jisc::BaseTuple* oldest = live.Admit(t)) {
      live.ForEachCombination(*oldest, all, [&](auto parts, int n) {
        AddRetraction(&digest, hash(parts, n));
      });
    }
    live.ForEachCombination(t, all, [&](auto parts, int n) {
      AddOutput(&digest, hash(parts, n));
    });
  }
  return digest;
}

}  // namespace jiscperf
