#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/hash.h"

namespace jisc {
namespace {

// Keys whose home slot is among the last `tail` slots of a table of
// `capacity` slots (and of every smaller table of at least `tail` slots),
// so a few of them form a cluster that wraps around the array end.
std::vector<int64_t> EndHomedKeys(size_t count, size_t capacity,
                                  size_t tail) {
  std::vector<int64_t> keys;
  for (int64_t k = 0; keys.size() < count; ++k) {
    size_t home = static_cast<size_t>(MixU64(static_cast<uint64_t>(k))) &
                  (capacity - 1);
    if (home >= capacity - tail) keys.push_back(k);
  }
  return keys;
}

std::vector<int64_t> IterationOrder(const FlatMap<int>& m) {
  std::vector<int64_t> keys;
  for (const auto& [k, v] : m) {
    (void)v;
    keys.push_back(k);
  }
  return keys;
}

void ExpectSameContent(const FlatMap<int>& m,
                       const std::unordered_map<int64_t, int>& ref) {
  ASSERT_EQ(m.size(), ref.size());
  std::map<int64_t, int> seen;
  for (const auto& [k, v] : m) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "key " << k << " visited twice";
  }
  ASSERT_EQ(seen.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto it = m.find(k);
    ASSERT_NE(it, m.end()) << "key " << k;
    EXPECT_EQ(it->second, v) << "key " << k;
  }
}

TEST(FlatMapTest, RandomizedDifferentialAgainstUnorderedMap) {
  // Half the key pool homes in the last 4 slots of every table up to 64
  // slots (and half of those keep to the end of larger ones): clusters
  // there wrap, which exercises the cyclic probe and backward shift.
  std::vector<int64_t> pool = EndHomedKeys(120, 64, 4);
  std::mt19937_64 rng(42);
  for (int i = 0; i < 120; ++i) {
    pool.push_back(static_cast<int64_t>(rng() % 100000) - 50000);
  }
  FlatMap<int> m;
  std::unordered_map<int64_t, int> ref;
  for (int step = 0; step < 20000; ++step) {
    int64_t key = pool[rng() % pool.size()];
    int value = static_cast<int>(rng() % 1000);
    switch (rng() % 10) {
      case 0: case 1: case 2: {
        auto [it, inserted] = m.try_emplace(key, value);
        auto [rit, rinserted] = ref.try_emplace(key, value);
        ASSERT_EQ(inserted, rinserted);
        ASSERT_EQ(it->second, rit->second);
        break;
      }
      case 3: case 4:
        m[key] = value;
        ref[key] = value;
        break;
      case 5: case 6: case 7:
        ASSERT_EQ(m.erase(key), ref.erase(key)) << "step " << step;
        break;
      case 8: {
        auto it = m.find(key);
        auto rit = ref.find(key);
        ASSERT_EQ(it == m.end(), rit == ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(it->second, rit->second);
          m.erase(it);
          ref.erase(rit);
        }
        break;
      }
      default:
        if (rng() % 200 == 0) {
          m.clear();
          ref.clear();
        }
        break;
    }
    ASSERT_EQ(m.size(), ref.size());
    if (step % 97 == 0) ExpectSameContent(m, ref);
  }
  ExpectSameContent(m, ref);
}

TEST(FlatMapTest, WrappedClusterSurvivesEveryEraseOrder) {
  // Six keys homed in the last four of eight slots: the cluster wraps.
  std::vector<int64_t> keys = EndHomedKeys(6, 8, 4);
  std::sort(keys.begin(), keys.end());
  do {
    FlatMap<int> m;
    for (int64_t k : keys) m[k] = static_cast<int>(k);
    ASSERT_EQ(m.capacity(), 8u);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(m.erase(keys[i]), 1u);
      for (size_t j = i + 1; j < keys.size(); ++j) {
        auto it = m.find(keys[j]);
        ASSERT_NE(it, m.end());
        EXPECT_EQ(it->second, static_cast<int>(keys[j]));
      }
      EXPECT_EQ(m.find(keys[i]), m.end());
    }
    EXPECT_TRUE(m.empty());
  } while (std::next_permutation(keys.begin(), keys.end()));
}

TEST(FlatMapTest, EraseNeverChangesCapacity) {
  FlatMap<int> m;
  for (int64_t k = 0; k < 1000; ++k) m[k * 7919] = 1;
  const size_t cap = m.capacity();
  ASSERT_GE(cap * 7, m.size() * 8);
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_EQ(m.erase(k * 7919), 1u);
    ASSERT_EQ(m.capacity(), cap);
  }
  EXPECT_TRUE(m.empty());
  for (int64_t k = 0; k < 1000; ++k) m[k] = 1;
  EXPECT_EQ(m.capacity(), cap) << "refilling to the old size must not grow";
  m.clear();
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.table_bytes(), cap * (sizeof(FlatMap<int>::Slot) + 1));
}

TEST(FlatMapTest, MaxLoadIsSevenEighths) {
  FlatMap<int> m;
  for (int64_t k = 0; k < 7; ++k) m[k] = 1;
  EXPECT_EQ(m.capacity(), 8u);
  m[7] = 1;
  EXPECT_EQ(m.capacity(), 16u);
  for (int64_t k = 8; k < 7168; ++k) m[k] = 1;
  EXPECT_EQ(m.capacity(), 8192u);
}

TEST(FlatMapTest, SameOperationsGiveSameIterationOrder) {
  auto build = [] {
    FlatMap<int> m;
    std::mt19937_64 rng(7);
    for (int i = 0; i < 5000; ++i) {
      int64_t key = static_cast<int64_t>(rng() % 3000);
      if (rng() % 3 == 0) {
        m.erase(key);
      } else {
        m[key] = i;
      }
    }
    return m;
  };
  FlatMap<int> a = build();
  FlatMap<int> b = build();
  EXPECT_EQ(IterationOrder(a), IterationOrder(b));
  EXPECT_FALSE(a.empty());
}

// The erase pattern a list state's RemoveContaining uses: visit every entry,
// collect the keys to drop, then erase them. Each key is visited once even
// when clusters wrap the array end.
TEST(FlatMapTest, CollectThenEraseVisitsEachKeyOnce) {
  std::vector<int64_t> keys = EndHomedKeys(40, 64, 8);
  for (int64_t k = 1000; k < 1020; ++k) keys.push_back(k);
  FlatMap<int> m;
  for (int64_t k : keys) m[k] = static_cast<int>(k % 3);
  std::map<int64_t, int> visits;
  std::vector<int64_t> doomed;
  for (auto& [k, v] : m) {
    ++visits[k];
    if (v == 0) doomed.push_back(k);
  }
  for (int64_t k : doomed) ASSERT_EQ(m.erase(k), 1u);
  ASSERT_EQ(visits.size(), keys.size());
  for (const auto& [k, n] : visits) EXPECT_EQ(n, 1) << "key " << k;
  size_t kept = 0;
  for (int64_t k : keys) {
    bool present = m.find(k) != m.end();
    EXPECT_EQ(present, k % 3 != 0) << "key " << k;
    kept += present ? 1 : 0;
  }
  EXPECT_EQ(m.size(), kept);
}

}  // namespace
}  // namespace jisc
