// Unit tests for the flat hash index behind every kernel's dedup and
// probe: tag collisions, dense first-insertion ids across rehashes,
// absent keys, and the zero-width keys of a cross-product join.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "relational/flat_hash.h"
#include "relational/relation.h"

namespace ppr {
namespace {

// Inserts the `width` values at `key` into `index` the way the kernels
// do: assembled at next_key(), then InsertNext().
int64_t Insert(FlatKeyIndex& index, const Value* key, int width) {
  Value* slot = index.next_key();
  for (int c = 0; c < width; ++c) slot[c] = key[c];
  return index.InsertNext();
}

TEST(FlatKeyIndexTest, KeysWithEqualTagsGetDistinctIds) {
  // The hash is fixed, so this search for two distinct 2-value keys
  // sharing all 32 tag bits is deterministic (birthday bound: ~2^16 keys).
  std::unordered_map<uint32_t, std::array<Value, 2>> by_tag;
  std::array<Value, 2> first{};
  std::array<Value, 2> second{};
  bool found = false;
  for (Value a = 0; a < (1 << 12) && !found; ++a) {
    for (Value b = 0; b < (1 << 12) && !found; ++b) {
      const std::array<Value, 2> key{a, b};
      const auto [it, inserted] =
          by_tag.emplace(FlatKeyIndex::Tag(key.data(), 2), key);
      if (!inserted) {
        first = it->second;
        second = key;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  ASSERT_NE(first, second);
  ASSERT_EQ(FlatKeyIndex::Tag(first.data(), 2),
            FlatKeyIndex::Tag(second.data(), 2));

  ExecArena arena;
  // One spare row: the repeats below are assembled after both keys.
  std::vector<Value> store(3 * 2);
  FlatKeyIndex index(3, 2, store.data(), arena);
  // Equal tags mean equal home slots: the second key probes past the
  // first, whose tag matches, and must compare the keys themselves.
  EXPECT_EQ(index.Find(second.data()), -1);
  EXPECT_EQ(Insert(index, first.data(), 2), 0);
  EXPECT_EQ(index.Find(second.data()), -1);
  EXPECT_EQ(Insert(index, second.data(), 2), 1);
  EXPECT_EQ(index.num_keys(), 2);
  EXPECT_EQ(index.Find(first.data()), 0);
  EXPECT_EQ(index.Find(second.data()), 1);
  EXPECT_EQ(Insert(index, first.data(), 2), 0);
  EXPECT_EQ(Insert(index, second.data(), 2), 1);
  EXPECT_EQ(index.num_keys(), 2);
}

TEST(FlatKeyIndexTest, IdsStayDenseInInsertionOrderThroughGrowth) {
  // A table for at least 1024 keys starts at 2048 slots and doubles each
  // time it is 2/3 full: 700000 keys take it through 10 doublings, to
  // 2^21 slots.
  constexpr int64_t kKeys = 700000;
  constexpr int64_t kFirstSlots = 2048;
  ExecArena arena;
  // One spare row: the last repeat is assembled after the last new key.
  std::vector<Value> store(static_cast<size_t>(kKeys + 1));
  FlatKeyIndex index(kKeys + 1, 1, store.data(), arena);
  for (int64_t i = 0; i < kKeys; ++i) {
    // Scrambled values, every one distinct, each followed by a repeat of
    // an earlier key that must find its existing id.
    const Value key = static_cast<Value>(i * 7919 % kKeys);
    ASSERT_EQ(Insert(index, &key, 1), i);
    const Value earlier = static_cast<Value>((i / 2) * 7919 % kKeys);
    ASSERT_EQ(Insert(index, &earlier, 1), i / 2);
  }
  EXPECT_EQ(index.num_keys(), kKeys);
  // Every slot array stays in the arena until it is rewound: the first
  // one and its 10 doublings.
  EXPECT_GE(arena.bytes_in_use(),
            sizeof(uint64_t) * kFirstSlots * ((size_t{1} << 11) - 1));
  for (int64_t i = 0; i < kKeys; ++i) {
    const Value key = static_cast<Value>(i * 7919 % kKeys);
    ASSERT_EQ(index.key_data()[i], key);
    ASSERT_EQ(index.Find(&key), i);
  }
  // Absent keys are still absent after the rehashes.
  for (Value key = kKeys; key < kKeys + 1000; ++key) {
    ASSERT_EQ(index.Find(&key), -1);
  }
  const Value negative = -1;
  EXPECT_EQ(index.Find(&negative), -1);
}

TEST(FlatKeyIndexTest, ZeroWidthKeysMapToOneId) {
  // A cross-product join keys its build side on no columns at all: every
  // row has the same (empty) key.
  ExecArena arena;
  FlatKeyIndex index(5, 0, nullptr, arena);
  for (int i = 0; i < 5; ++i) {
    index.next_key();
    EXPECT_EQ(index.InsertNext(), 0);
  }
  EXPECT_EQ(index.num_keys(), 1);
  const Value no_key = 0;  // any address: a zero-width key reads nothing
  EXPECT_EQ(index.Find(&no_key), 0);

  Relation build{Schema({0})};
  build.AddTuple({4});
  build.AddTuple({5});
  build.AddTuple({6});
  const JoinIndex join(build, {}, arena);
  const std::span<const int64_t> rows = join.Probe(&no_key);
  EXPECT_EQ(std::vector<int64_t>(rows.begin(), rows.end()),
            (std::vector<int64_t>{0, 1, 2}));
}

}  // namespace
}  // namespace ppr
