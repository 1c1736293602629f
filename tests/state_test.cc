#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "state/operator_state.h"

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

TEST_F(OperatorStateTest, RemovalMakesInvisibleAtRemoveStamp) {
  state_.Insert(T(0, 5, 1), 10);
  std::vector<Tuple> removed;
  int n = state_.RemoveContaining(1, 5, /*remove_stamp=*/20, &removed);
  EXPECT_EQ(n, 1);
  ASSERT_EQ(removed.size(), 1u);
  std::vector<Tuple> out;
  state_.CollectMatches(5, 15, &out);  // probe between insert and remove
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  state_.CollectMatches(5, 20, &out);  // probe at the removal stamp
  EXPECT_TRUE(out.empty());
  out.clear();
  state_.CollectMatches(5, 25, &out);
  EXPECT_TRUE(out.empty());
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

TEST_F(OperatorStateTest, VacuumDirtyErasesTombstones) {
  state_.Insert(T(0, 5, 1), 1);
  state_.Insert(T(0, 5, 2), 1);
  state_.RemoveContaining(1, 5, 3, nullptr);
  EXPECT_TRUE(state_.HasTombstones());
  state_.VacuumDirty();
  EXPECT_FALSE(state_.HasTombstones());
  // The survivor remains probe-able.
  std::vector<Tuple> out;
  state_.CollectMatches(5, 10, &out);
  EXPECT_EQ(out.size(), 1u);
}

// A hot key's bucket is queued for vacuum once per cycle, not once per
// removed entry, so VacuumDirty compacts it in one pass.
TEST_F(OperatorStateTest, HotKeyRemovalsQueueBucketOnce) {
  for (Seq seq = 1; seq <= 1000; ++seq) state_.Insert(T(0, 5, seq), 1);
  state_.Insert(T(0, 6, 1001), 1);
  for (Seq seq = 1; seq <= 500; ++seq) {
    ASSERT_EQ(state_.RemoveContaining(seq, 5, /*remove_stamp=*/2, nullptr),
              1);
  }
  for (Seq seq = 501; seq <= 1000; ++seq) {
    ASSERT_TRUE(state_.RemoveExact(T(0, 5, seq), 2));
  }
  EXPECT_EQ(state_.PendingVacuumKeys(), 1u);
  state_.RemoveContaining(1001, 6, 2, nullptr);
  EXPECT_EQ(state_.PendingVacuumKeys(), 2u);
  state_.VacuumDirty();
  EXPECT_EQ(state_.PendingVacuumKeys(), 0u);
  EXPECT_FALSE(state_.ContainsKeyLive(5));
  // The flag is cleared with the vacuum: the next cycle queues again.
  state_.Insert(T(0, 5, 1002), 3);
  state_.Insert(T(0, 5, 1003), 3);
  state_.RemoveContaining(1002, 5, 4, nullptr);
  state_.RemoveContaining(1003, 5, 4, nullptr);
  EXPECT_EQ(state_.PendingVacuumKeys(), 1u);
}

// One RemoveContaining that tombstones 1,000 combinations of one bucket.
TEST(OperatorStateComboTest, HotComboRemovalQueuesBucketOnce) {
  OperatorState st(StreamSet::Union(StreamSet::Single(0),
                                    StreamSet::Single(1)),
                   StateIndex::kHash);
  for (Seq seq = 2; seq <= 1001; ++seq) {
    st.Insert(Tuple::Concat(T(0, 5, 1), T(1, 5, seq), 3, true), 3);
  }
  EXPECT_EQ(st.RemoveContaining(1, 5, 9, nullptr), 1000);
  EXPECT_EQ(st.PendingVacuumKeys(), 1u);
  st.VacuumDirty();
  EXPECT_FALSE(st.HasTombstones());
  EXPECT_EQ(st.live_size(), 0u);
}

TEST_F(OperatorStateTest, ContainsKeyLiveAndExact) {
  state_.Insert(T(0, 5, 1), 1);
  EXPECT_TRUE(state_.ContainsKeyLive(5));
  EXPECT_FALSE(state_.ContainsKeyLive(6));
  EXPECT_TRUE(state_.ContainsExactLive(T(0, 5, 1)));
  EXPECT_FALSE(state_.ContainsExactLive(T(0, 5, 2)));
  state_.RemoveExact(T(0, 5, 1), 2);
  EXPECT_FALSE(state_.ContainsKeyLive(5));
}

TEST_F(OperatorStateTest, RemoveExactOnMissingReturnsFalse) {
  EXPECT_FALSE(state_.RemoveExact(T(0, 5, 1), 2));
}

TEST_F(OperatorStateTest, ForEachVisibleAndLive) {
  state_.Insert(T(0, 5, 1), 1);
  state_.Insert(T(0, 6, 2), 5);
  state_.RemoveContaining(2, 6, 7, nullptr);
  int visible_at_6 = 0;
  state_.ForEachVisible(6, [&](const Tuple&) { ++visible_at_6; });
  EXPECT_EQ(visible_at_6, 2);  // the removed entry still visible before 7
  int live = 0;
  state_.ForEachLive([&](const Tuple&) { ++live; });
  EXPECT_EQ(live, 1);
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

std::vector<Seq> Seqs(const std::vector<const Tuple*>& tuples) {
  std::vector<Seq> out;
  for (const Tuple* t : tuples) out.push_back(t->parts()[0].seq);
  return out;
}

// Probes return a key's entries in insertion order, whatever removals,
// vacuums and record-id reuse came before: checked against a model after
// every step of a random interleaving.
TEST(OperatorStateLayoutTest, ProbeOrderIsInsertionOrderAcrossReuse) {
  OperatorState st(StreamSet::Single(0), StateIndex::kHash);
  std::map<JoinKey, std::vector<Seq>> model;  // live seqs, insertion order
  std::mt19937_64 rng(7);
  Seq next_seq = 1;
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
      st.VacuumDirty();
    }
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

  EXPECT_TRUE(st.RemoveExact(T(0, 5, 1), 3));
  EXPECT_FALSE(st.RemoveExact(T(0, 5, 1), 3));
  EXPECT_FALSE(st.ContainsExactLive(T(0, 5, 1)));

  std::unique_ptr<OperatorState> copy = st.Clone();
  EXPECT_EQ(copy->id(), st.id());
  EXPECT_EQ(copy->live_size(), 2u);
  EXPECT_FALSE(copy->HasTombstones());
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

}  // namespace
}  // namespace jisc
