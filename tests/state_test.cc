#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "plan/logical_plan.h"
#include "state/operator_state.h"
#include "tests/test_util.h"
#include "workload/factory.h"

namespace jisc {
namespace {

BaseTuple MakeBase(StreamId s, JoinKey k, Seq seq) {
  BaseTuple b;
  b.stream = s;
  b.key = k;
  b.seq = seq;
  return b;
}

Tuple T(StreamId s, JoinKey k, Seq seq, Stamp birth = 0) {
  return Tuple::FromBase(MakeBase(s, k, seq), birth, true);
}

std::vector<Seq> Seqs(const std::vector<const Tuple*>& tuples) {
  std::vector<Seq> out;
  for (const Tuple* t : tuples) out.push_back(t->parts()[0].seq);
  return out;
}

class OperatorStateTest : public ::testing::Test {
 protected:
  OperatorStateTest()
      : state_(StreamSet::Single(0), StateIndex::kHash) {}
  OperatorState state_;
};

TEST_F(OperatorStateTest, InsertAndProbeVisibility) {
  state_.Insert(T(0, 5, 1), /*insert_stamp=*/10);
  std::vector<Tuple> out;
  state_.CollectMatches(5, /*p=*/10, &out);
  EXPECT_TRUE(out.empty()) << "same-stamp entries are invisible";
  state_.CollectMatches(5, 11, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].parts()[0].seq, 1u);
}

// Single version: a removed entry is gone for every later read, at any
// probe stamp, including stamps below the removal's.
TEST_F(OperatorStateTest, RemovalMakesInvisibleAtRemoveStamp) {
  state_.Insert(T(0, 5, 1), 10);
  state_.Insert(T(0, 5, 2), 10);
  std::vector<Tuple> removed;
  int n = state_.RemoveContaining(1, 5, /*stamp=*/20, &removed);
  EXPECT_EQ(n, 1);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].parts()[0].seq, 1u);
  for (Stamp p : {Stamp{15}, Stamp{20}, Stamp{25}}) {
    std::vector<Tuple> out;
    state_.CollectMatches(5, p, &out);
    ASSERT_EQ(out.size(), 1u) << "probe at " << p;
    EXPECT_EQ(out[0].parts()[0].seq, 2u);
    int visible = 0;
    state_.ForEachVisible(p, [&](const Tuple&) { ++visible; });
    EXPECT_EQ(visible, 1) << "probe at " << p;
  }
  EXPECT_FALSE(state_.ContainsExactLive(T(0, 5, 1)));
  std::vector<Tuple> live;
  state_.CollectLiveByKey(5, &live);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].parts()[0].seq, 2u);
  EXPECT_EQ(state_.live_size(), 1u);
  EXPECT_EQ(state_.RemoveContaining(1, 5, 21, nullptr), 0);
  // The last entry's removal takes the key with it.
  EXPECT_EQ(state_.RemoveContaining(2, 5, 22, nullptr), 1);
  EXPECT_FALSE(state_.ContainsKeyLive(5));
  EXPECT_EQ(state_.DistinctLiveKeys(), 0u);
  EXPECT_TRUE(state_.LiveKeys().empty());
}

TEST_F(OperatorStateTest, DedupInsertSkipsLiveDuplicates) {
  EXPECT_TRUE(state_.Insert(T(0, 5, 1), 10, /*dedup=*/true));
  EXPECT_FALSE(state_.Insert(T(0, 5, 1), 12, /*dedup=*/true));
  EXPECT_EQ(state_.live_size(), 1u);
  // After removal, the same identity may be inserted again.
  state_.RemoveContaining(1, 5, 15, nullptr);
  EXPECT_TRUE(state_.Insert(T(0, 5, 1), 20, /*dedup=*/true));
}

TEST_F(OperatorStateTest, LiveCountsAndDistinctKeys) {
  state_.Insert(T(0, 5, 1), 1);
  state_.Insert(T(0, 5, 2), 2);
  state_.Insert(T(0, 7, 3), 3);
  EXPECT_EQ(state_.live_size(), 3u);
  EXPECT_EQ(state_.DistinctLiveKeys(), 2u);
  state_.RemoveContaining(1, 5, 4, nullptr);
  EXPECT_EQ(state_.live_size(), 2u);
  EXPECT_EQ(state_.DistinctLiveKeys(), 2u);
  state_.RemoveContaining(2, 5, 5, nullptr);
  EXPECT_EQ(state_.DistinctLiveKeys(), 1u);
  auto keys = state_.LiveKeys();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], 7);
}

// A list state erases the buckets one removal empties after its scan:
// erasing shifts a cluster back over the hole, so erasing mid-scan could
// skip or revisit buckets. Every survivor stays reachable afterwards.
TEST(OperatorStateComboTest, ListRemovalErasesEmptiedBuckets) {
  OperatorState st(StreamSet::Union(StreamSet::Single(0),
                                    StreamSet::Single(1)),
                   StateIndex::kList);
  // Every bucket holds a combination with right part seq 5000; every third
  // bucket also holds one with seq 6000 + k, which survives.
  constexpr JoinKey kKeys = 500;
  for (JoinKey k = 0; k < kKeys; ++k) {
    const Seq left = static_cast<Seq>(k) + 1;
    st.Insert(Tuple::Concat(T(0, k, left), T(1, 9, 5000), 2, true), 2);
    if (k % 3 == 0) {
      st.Insert(Tuple::Concat(T(0, k, left),
                              T(1, 9, 6000 + static_cast<Seq>(k)), 2, true),
                2);
    }
  }
  const size_t slab = st.slab_records();
  std::vector<Tuple> removed;
  EXPECT_EQ(st.RemoveContaining(5000, 9, 3, &removed), kKeys);
  EXPECT_EQ(removed.size(), static_cast<size_t>(kKeys));
  const size_t survivors = (kKeys + 2) / 3;
  EXPECT_EQ(st.live_size(), survivors);
  EXPECT_EQ(st.DistinctLiveKeys(), survivors);
  EXPECT_EQ(st.LiveKeys().size(), survivors);
  for (JoinKey k = 0; k < kKeys; ++k) {
    EXPECT_EQ(st.ContainsKeyLive(k), k % 3 == 0) << "key " << k;
  }
  size_t walked = 0;
  st.ForEachLive([&](const Tuple& t) {
    ++walked;
    EXPECT_EQ(t.parts()[1].seq, 6000 + static_cast<Seq>(t.parts()[0].key));
  });
  EXPECT_EQ(walked, survivors);
  // The freed records are reused before the slab grows.
  for (JoinKey k = 0; k < kKeys; ++k) {
    st.Insert(Tuple::Concat(T(0, k, 10000 + static_cast<Seq>(k)),
                            T(1, 9, 7000), 4, true),
              4);
  }
  EXPECT_EQ(st.slab_records(), slab);
  EXPECT_EQ(st.DistinctLiveKeys(), static_cast<size_t>(kKeys));
}

// Removals from a hot key's bucket unlink in place: the survivors keep
// their insertion order, and the freed records are reused, so the slab
// stays at the peak live size however many entries come and go.
TEST_F(OperatorStateTest, HotKeyRemovalKeepsOrderAndReusesIds) {
  constexpr Seq kHot = 1000;
  for (Seq seq = 1; seq <= kHot; ++seq) state_.Insert(T(0, 5, seq), 1);
  state_.Insert(T(0, 6, kHot + 1), 1);
  const size_t peak = state_.slab_records();
  EXPECT_EQ(peak, kHot + 1);
  Seq next = kHot + 2;
  for (Stamp stamp = 2; stamp <= 20; ++stamp) {
    // Remove every other survivor, then refill the bucket.
    std::vector<Tuple> before;
    state_.CollectLiveByKey(5, &before);
    std::vector<Seq> expect;
    for (size_t i = 0; i < before.size(); ++i) {
      const Seq seq = before[i].parts()[0].seq;
      if (i % 2 == 0) {
        ASSERT_EQ(state_.RemoveContaining(seq, 5, stamp, nullptr), 1);
      } else {
        expect.push_back(seq);
      }
    }
    std::vector<const Tuple*> ptrs;
    state_.CollectMatchPtrs(5, stamp + 1, &ptrs);
    ASSERT_EQ(Seqs(ptrs), expect) << "at stamp " << stamp;
    while (state_.live_size() < kHot + 1) {
      state_.Insert(T(0, 5, next++), stamp);
    }
    EXPECT_EQ(state_.slab_records(), peak) << "at stamp " << stamp;
  }
  std::vector<Tuple> other;
  state_.CollectLiveByKey(6, &other);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0].parts()[0].seq, kHot + 1);
}

// One RemoveContaining that unlinks 1,000 combinations of one bucket frees
// every record and erases the bucket.
TEST(OperatorStateComboTest, HotComboRemovalFreesEveryRecord) {
  OperatorState st(StreamSet::Union(StreamSet::Single(0),
                                    StreamSet::Single(1)),
                   StateIndex::kHash);
  for (Seq seq = 2; seq <= 1001; ++seq) {
    st.Insert(Tuple::Concat(T(0, 5, 1), T(1, 5, seq), 3, true), 3);
  }
  EXPECT_EQ(st.RemoveContaining(1, 5, 9, nullptr), 1000);
  EXPECT_FALSE(st.HasTombstones());
  EXPECT_EQ(st.live_size(), 0u);
  EXPECT_FALSE(st.ContainsKeyLive(5));
  EXPECT_EQ(st.ApproxBytes(), st.TableBytes());
  for (Seq seq = 2; seq <= 1001; ++seq) {
    st.Insert(Tuple::Concat(T(0, 7, 2000), T(1, 7, seq), 10, true), 10);
  }
  EXPECT_EQ(st.slab_records(), 1000u);
}

TEST_F(OperatorStateTest, ContainsKeyLiveAndExact) {
  state_.Insert(T(0, 5, 1), 1);
  EXPECT_TRUE(state_.ContainsKeyLive(5));
  EXPECT_FALSE(state_.ContainsKeyLive(6));
  EXPECT_TRUE(state_.ContainsExactLive(T(0, 5, 1)));
  EXPECT_FALSE(state_.ContainsExactLive(T(0, 5, 2)));
  state_.RemoveContaining(1, 5, 2, nullptr);
  EXPECT_FALSE(state_.ContainsKeyLive(5));
}

// Suppression takes a key's whole bucket, in insertion order.
TEST_F(OperatorStateTest, TakeLiveByKeyTakesTheBucketInOrder) {
  std::vector<Tuple> out;
  EXPECT_EQ(state_.TakeLiveByKey(5, &out), 0u);
  EXPECT_TRUE(out.empty());
  for (Seq seq : {3, 1, 2}) state_.Insert(T(0, 5, seq), seq);
  state_.Insert(T(0, 6, 4), 1);
  EXPECT_EQ(state_.TakeLiveByKey(5, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].parts()[0].seq, std::vector<Seq>({3, 1, 2})[i]);
    EXPECT_EQ(out[i].birth(), out[i].parts()[0].seq);
  }
  EXPECT_FALSE(state_.ContainsKeyLive(5));
  EXPECT_EQ(state_.live_size(), 1u);
  EXPECT_EQ(state_.DistinctLiveKeys(), 1u);
  for (Seq seq = 10; seq < 13; ++seq) state_.Insert(T(0, 7, seq), 5);
  EXPECT_EQ(state_.slab_records(), 4u);
}

// An entry inserted at stamp s is invisible to every probe at s and
// visible above it; a removed one is in neither walk.
TEST_F(OperatorStateTest, ForEachVisibleAndLive) {
  state_.Insert(T(0, 5, 1), 1);
  state_.Insert(T(0, 6, 2), 5);
  state_.Insert(T(0, 7, 3), 6);
  state_.RemoveContaining(2, 6, 7, nullptr);
  auto visible_seqs = [&](Stamp p) {
    std::vector<Seq> seqs;
    state_.ForEachVisible(p, [&](const Tuple& t) {
      seqs.push_back(t.parts()[0].seq);
    });
    std::sort(seqs.begin(), seqs.end());
    return seqs;
  };
  EXPECT_EQ(visible_seqs(1), std::vector<Seq>{});
  EXPECT_EQ(visible_seqs(6), std::vector<Seq>{1});
  EXPECT_EQ(visible_seqs(7), (std::vector<Seq>{1, 3}));
  std::vector<Tuple> at_6;
  state_.CollectMatches(7, 6, &at_6);
  EXPECT_TRUE(at_6.empty());
  int live = 0;
  state_.ForEachLive([&](const Tuple&) { ++live; });
  EXPECT_EQ(live, 2);
}

TEST_F(OperatorStateTest, CompletenessBookkeeping) {
  EXPECT_TRUE(state_.complete());
  state_.MarkIncomplete();
  EXPECT_FALSE(state_.complete());
  EXPECT_FALSE(state_.IsKeyCompleted(5));
  state_.MarkKeyCompleted(5);
  EXPECT_TRUE(state_.IsKeyCompleted(5));
  EXPECT_EQ(state_.NumCompletedKeys(), 1u);
  state_.MarkComplete();
  EXPECT_TRUE(state_.complete());
  EXPECT_EQ(state_.NumCompletedKeys(), 0u);
}

TEST_F(OperatorStateTest, ClearResetsEverything) {
  state_.Insert(T(0, 5, 1), 1);
  state_.MarkIncomplete();
  state_.MarkKeyCompleted(5);
  state_.Clear();
  EXPECT_EQ(state_.live_size(), 0u);
  EXPECT_EQ(state_.DistinctLiveKeys(), 0u);
  EXPECT_EQ(state_.NumCompletedKeys(), 0u);
  EXPECT_FALSE(state_.ContainsKeyLive(5));
}

// Composite combinations: removal by any contained part's seq.
TEST(OperatorStateComboTest, RemoveContainingFindsCombos) {
  OperatorState st(StreamSet::Union(StreamSet::Single(0),
                                    StreamSet::Single(1)),
                   StateIndex::kHash);
  Tuple combo = Tuple::Concat(T(0, 5, 1), T(1, 5, 2), 3, true);
  st.Insert(combo, 3);
  EXPECT_EQ(st.RemoveContaining(2, 5, 9, nullptr), 1);
  EXPECT_EQ(st.live_size(), 0u);
}

// List-indexed states: removal must scan all buckets (combos may live under
// a different bucket key than the expired part's key).
TEST(OperatorStateComboTest, ListIndexRemovalScansAllBuckets) {
  OperatorState st(StreamSet::Union(StreamSet::Single(0),
                                    StreamSet::Single(1)),
                   StateIndex::kList);
  // Band-join combo: parts with different keys; bucket key = first part's.
  Tuple combo = Tuple::Concat(T(0, 5, 1), T(1, 7, 2), 3, true);
  st.Insert(combo, 3);
  // Remove by the *second* part's seq and key (different bucket).
  EXPECT_EQ(st.RemoveContaining(2, 7, 9, nullptr), 1);
  EXPECT_EQ(st.live_size(), 0u);
}

TEST(OperatorStateComboTest, HashIndexRemovalConfinedToKeyBucket) {
  OperatorState st(StreamSet::Single(0), StateIndex::kHash);
  st.Insert(T(0, 5, 1), 1);
  st.Insert(T(0, 6, 2), 1);
  // Wrong key: not found even though seq exists under key 5.
  EXPECT_EQ(st.RemoveContaining(1, 6, 9, nullptr), 0);
  EXPECT_EQ(st.RemoveContaining(1, 5, 9, nullptr), 1);
}

TEST(OperatorStateComboTest, DebugStringMentionsCompleteness) {
  OperatorState st(StreamSet::Single(3), StateIndex::kHash);
  EXPECT_NE(st.DebugString().find("complete"), std::string::npos);
  st.MarkIncomplete();
  EXPECT_NE(st.DebugString().find("INCOMPLETE"), std::string::npos);
}

// An n-part combination over streams 0..n-1, every part with key k and
// seqs first_seq, first_seq + 1, ...
Tuple Combo(int n, JoinKey k, Seq first_seq) {
  Tuple t = T(0, k, first_seq);
  for (int s = 1; s < n; ++s) {
    t = Tuple::Concat(t, T(static_cast<StreamId>(s), k, first_seq + s), 1,
                      true);
  }
  return t;
}

// Probes return a key's entries in insertion order, whatever removals,
// suppressions and record-id reuse came before: checked against a model
// after every step of a random interleaving. The slab never outgrows the
// peak live size.
TEST(OperatorStateLayoutTest, ProbeOrderIsInsertionOrderAcrossReuse) {
  OperatorState st(StreamSet::Single(0), StateIndex::kHash);
  std::map<JoinKey, std::vector<Seq>> model;  // live seqs, insertion order
  std::mt19937_64 rng(7);
  Seq next_seq = 1;
  size_t peak = 0;
  for (Stamp stamp = 1; stamp <= 3000; ++stamp) {
    const JoinKey key = static_cast<JoinKey>(rng() % 3);
    std::vector<Seq>& live = model[key];
    const uint64_t op = rng() % 10;
    if (op < 5 || live.empty()) {
      st.Insert(T(0, key, next_seq), stamp);
      live.push_back(next_seq++);
    } else if (op < 9) {
      const size_t victim = rng() % live.size();
      ASSERT_EQ(st.RemoveContaining(live[victim], key, stamp, nullptr), 1);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      std::vector<Tuple> taken;
      ASSERT_EQ(st.TakeLiveByKey(key, &taken), live.size());
      for (size_t i = 0; i < live.size(); ++i) {
        ASSERT_EQ(taken[i].parts()[0].seq, live[i]);
      }
      live.clear();
    }
    peak = std::max(peak, st.live_size());
    ASSERT_EQ(st.slab_records(), peak);
    for (const auto& [k, seqs] : model) {
      std::vector<const Tuple*> ptrs;
      st.CollectMatchPtrs(k, stamp + 1, &ptrs);
      ASSERT_EQ(Seqs(ptrs), seqs) << "key " << k << " at stamp " << stamp;
      std::vector<Tuple> live_tuples;
      st.CollectLiveByKey(k, &live_tuples);
      ASSERT_EQ(live_tuples.size(), seqs.size());
    }
  }
  size_t total = 0;
  for (const auto& [k, seqs] : model) total += seqs.size();
  EXPECT_EQ(st.live_size(), total);
}

// Semi-join and set-difference states store outer tuples narrower than
// their id(): the record stride follows the stored width.
TEST(OperatorStateLayoutTest, NarrowEntries) {
  OperatorState st(StreamSet(0b111), StateIndex::kHash);
  EXPECT_TRUE(st.Insert(T(0, 5, 1), 1, /*dedup=*/true));
  EXPECT_FALSE(st.Insert(T(0, 5, 1), 2, /*dedup=*/true));
  EXPECT_TRUE(st.Insert(T(0, 6, 3), 2, /*dedup=*/true));
  EXPECT_TRUE(st.Insert(T(0, 5, 2), 2, /*dedup=*/true));
  EXPECT_EQ(st.live_size(), 3u);
  EXPECT_EQ(st.ApproxBytes(),
            3 * OperatorState::RecordBytes(1) + st.TableBytes());

  EXPECT_EQ(st.RemoveContaining(1, 5, 3, nullptr), 1);
  EXPECT_EQ(st.RemoveContaining(1, 5, 3, nullptr), 0);
  EXPECT_FALSE(st.ContainsExactLive(T(0, 5, 1)));

  std::unique_ptr<OperatorState> copy = st.Clone();
  EXPECT_EQ(copy->id(), st.id());
  EXPECT_EQ(copy->live_size(), 2u);
  EXPECT_TRUE(copy->ContainsExactLive(T(0, 5, 2)));
  EXPECT_FALSE(copy->ContainsExactLive(T(0, 5, 1)));
  EXPECT_EQ(copy->ApproxBytes(),
            2 * OperatorState::RecordBytes(1) + copy->TableBytes());

  // Canonical walk: by insertion stamp, ties by part seq; stamps kept.
  std::vector<std::pair<Seq, Stamp>> walked;
  copy->ForEachLiveEntryCanonical([&](const Tuple& t, Stamp stamp) {
    EXPECT_EQ(t.parts().size(), 1u);
    EXPECT_EQ(t.streams(), StreamSet::Single(0));
    walked.emplace_back(t.parts()[0].seq, stamp);
  });
  std::vector<std::pair<Seq, Stamp>> expect = {{2, 2}, {3, 2}};
  EXPECT_EQ(walked, expect);
}

// Five- and six-part combinations spill their parts to the heap; state
// records hold them inline at any width.
TEST(OperatorStateLayoutTest, SpilledCombinations) {
  for (int n : {5, 6}) {
    SCOPED_TRACE(n);
    Tuple a = Combo(n, 7, 100);
    Tuple b = Combo(n, 7, 200);
    ASSERT_EQ(a.parts().size(), static_cast<size_t>(n));
    ASSERT_GT(a.parts().size(), Tuple::kInlineParts);
    Tuple copied = a;
    Tuple moved = std::move(copied);
    EXPECT_EQ(moved, a);
    EXPECT_EQ(moved.streams(), StreamSet((1ULL << n) - 1));

    OperatorState st(StreamSet((1ULL << n) - 1), StateIndex::kHash);
    st.Insert(a, 1);
    st.Insert(b, 1);
    EXPECT_TRUE(st.ContainsExactLive(a));
    EXPECT_FALSE(st.ContainsExactLive(Combo(n, 7, 300)));
    std::vector<Tuple> removed;
    // Remove by the last part's seq.
    EXPECT_EQ(st.RemoveContaining(100 + n - 1, 7, 2, &removed), 1);
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0], a);
    EXPECT_EQ(removed[0].streams(), a.streams());
    EXPECT_EQ(removed[0].key(), 7);
    for (size_t i = 0; i < removed[0].parts().size(); ++i) {
      EXPECT_EQ(removed[0].parts()[i].stream, a.parts()[i].stream);
    }
    EXPECT_FALSE(st.ContainsExactLive(a));
    EXPECT_TRUE(st.ContainsExactLive(b));
    EXPECT_EQ(st.ApproxBytes(),
              OperatorState::RecordBytes(n) + st.TableBytes());
  }
}

// CollectMatchPtrs' pointers survive every read that is not itself a
// CollectMatchPtrs call; only a mutation or the next such probe may
// invalidate them.
TEST(OperatorStateLayoutTest, MatchPtrsValidUntilNextMutation) {
  OperatorState st(StreamSet::Single(0), StateIndex::kHash);
  for (Seq seq = 1; seq <= 3; ++seq) st.Insert(T(0, 5, seq), 1);
  st.Insert(T(0, 6, 4), 1);
  std::vector<const Tuple*> ptrs;
  st.CollectMatchPtrs(5, 2, &ptrs);
  ASSERT_EQ(Seqs(ptrs), (std::vector<Seq>{1, 2, 3}));

  std::vector<Tuple> out;
  st.CollectMatches(5, 2, &out);
  st.CollectMatches(6, 2, &out);
  st.CollectLiveByKey(6, &out);
  std::vector<std::pair<Tuple, Stamp>> with_stamps;
  st.CollectLiveByKeyWithStamps(5, &with_stamps);
  st.ForEachLive([](const Tuple&) {});
  st.ForEachVisible(2, [](const Tuple&) {});
  st.ForEachLiveEntryCanonical([](const Tuple&, Stamp) {});
  EXPECT_TRUE(st.ContainsExactLive(T(0, 6, 4)));
  EXPECT_TRUE(st.ContainsKeyLive(5));
  std::unique_ptr<OperatorState> copy = st.Clone();
  std::vector<const Tuple*> other;
  copy->CollectMatchPtrs(5, 2, &other);

  EXPECT_EQ(Seqs(ptrs), (std::vector<Seq>{1, 2, 3}));
  for (const Tuple* t : ptrs) {
    EXPECT_EQ(t->key(), 5);
    EXPECT_EQ(t->streams(), StreamSet::Single(0));
  }
}

// Every processor that holds state frees each expired record where expiry
// finds it, so over a run of 50 windows each state's slab stays within
// twice the largest live size it reached, with a plan transition halfway.
TEST(OperatorStateBoundTest, SlabStaysNearPeakLiveOverFiftyWindows) {
  constexpr int kStreams = 3;
  constexpr uint64_t kWindow = 64;
  const size_t pushes = 50 * kWindow * kStreams;
  WindowSpec windows = WindowSpec::Uniform(kStreams, kWindow);
  LogicalPlan plan = LogicalPlan::LeftDeep(testutil::IdentityOrder(kStreams),
                                           OpKind::kHashJoin);
  LogicalPlan reversed = LogicalPlan::LeftDeep({2, 1, 0}, OpKind::kHashJoin);
  std::vector<BaseTuple> tuples =
      testutil::UniformWorkload(kStreams, /*domain=*/16, pushes);
  for (ProcessorKind kind :
       {ProcessorKind::kCacq, ProcessorKind::kMJoin,
        ProcessorKind::kStairsEager, ProcessorKind::kStairsJisc,
        ProcessorKind::kJisc}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    BuiltProcessor built = MakeProcessor(kind, plan, windows);
    StreamProcessor& proc = *built.processor;
    std::map<const OperatorState*, size_t> peak_live;
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (i == tuples.size() / 2) {
        ASSERT_TRUE(proc.RequestTransition(reversed).ok());
      }
      proc.Push(tuples[i]);
      proc.ForEachState([&](const OperatorState& st) {
        size_t& peak = peak_live[&st];
        peak = std::max(peak, st.live_size());
      });
    }
    size_t states = 0;
    size_t live = 0;
    proc.ForEachState([&](const OperatorState& st) {
      ++states;
      live += st.live_size();
      EXPECT_LE(st.slab_records(), 2 * peak_live[&st])
          << st.DebugString() << " peak " << peak_live[&st];
    });
    EXPECT_GE(states, static_cast<size_t>(kStreams));
    EXPECT_GT(live, 0u);
  }
}

}  // namespace
}  // namespace jisc
