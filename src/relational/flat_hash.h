#ifndef PPR_RELATIONAL_FLAT_HASH_H_
#define PPR_RELATIONAL_FLAT_HASH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "common/arena.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/types.h"
#include "relational/relation.h"

namespace ppr {

/// Flat open-addressing hash table over fixed-width keys.
///
/// Keys are rows of `key_width` values packed contiguously into a key
/// store the caller provides, with room for the caller's upper bound on
/// distinct keys (operators know one: a key per input row at most, or the
/// rows the tuple budget still allows). A key is inserted where the
/// caller assembled it, in the store's next free row (next_key()), so a
/// distinct key is written exactly once. Projection passes its output
/// rows as the store: the distinct keys are the output, in
/// first-insertion order.
///
/// Slot layout: each slot is one 64-bit word, 32 bits of the key's hash
/// (the tag) above the key's 32-bit id; an all-ones word marks an empty
/// slot. The slot index comes from the tag, so a probe compares tags and
/// reads the key store only on a tag match, and a rehash re-seats slots
/// without reading any key. The array is probed linearly and starts
/// small, doubling when load exceeds ~0.7: distinct counts are usually
/// far below the upper bound. Slots come from an arena; no per-key heap
/// allocation.
class FlatKeyIndex {
 public:
  /// Accepts up to `max_keys` distinct keys of `key_width` values each,
  /// stored in `keys` (room for max_keys * key_width values; the caller
  /// keeps it alive). Slots come from `arena`, which must outlive the
  /// index.
  FlatKeyIndex(int64_t max_keys, int key_width, Value* keys, ExecArena& arena)
      : arena_(&arena), width_(key_width), max_keys_(max_keys), keys_(keys) {
    PPR_DCHECK(max_keys >= 0 && key_width >= 0);
    // Ids are 32 bits, and so are the tags the slot index comes from:
    // at most 2^32 slots, which the load factor keeps above 2^31 keys.
    PPR_CHECK(max_keys <= std::numeric_limits<int32_t>::max());
    // Next power of two keeping load factor under ~0.7, but never more
    // than 2048 slots upfront: the common case holds far fewer distinct
    // keys than max_keys, and doubling from a small table costs less
    // than clearing a huge one.
    const int64_t hinted = std::min<int64_t>(max_keys, 1024);
    int64_t capacity = 16;
    while (capacity * 2 < hinted * 3) capacity <<= 1;
    AllocSlots(capacity);
  }

  /// The store row where the caller assembles the next key to insert
  /// (key_width() values). It becomes the key's home if InsertNext()
  /// finds the key new; otherwise the next candidate overwrites it. Valid
  /// while num_keys() < the index's max_keys.
  Value* next_key() {
    PPR_DCHECK(num_keys_ < max_keys_);
    return keys_ + num_keys_ * width_;
  }

  /// Returns the id (dense, in first-insertion order) of the key
  /// assembled at next_key(), inserting it when new: it then stays in the
  /// store as row num_keys() - 1, and next_key() moves past it.
  int64_t InsertNext() {
    if (num_keys_ >= grow_at_) Grow();
    const Value* key = keys_ + num_keys_ * width_;
    const uint32_t tag = Tag(key, width_);
    uint64_t slot = tag & mask_;
    while (true) {
      const uint64_t entry = slots_[slot];
      if (entry == kEmpty) {
        PPR_DCHECK(num_keys_ < max_keys_);
        slots_[slot] = (uint64_t{tag} << 32) | static_cast<uint64_t>(num_keys_);
        return num_keys_++;
      }
      if (Matches(entry, tag, key)) return IdOf(entry);
      slot = (slot + 1) & mask_;
    }
  }

  /// Returns the id of `key`, or -1 when absent.
  int64_t Find(const Value* key) const {
    const uint32_t tag = Tag(key, width_);
    uint64_t slot = tag & mask_;
    while (true) {
      const uint64_t entry = slots_[slot];
      if (entry == kEmpty) return -1;
      if (Matches(entry, tag, key)) return IdOf(entry);
      slot = (slot + 1) & mask_;
    }
  }

  int64_t num_keys() const { return num_keys_; }
  int key_width() const { return width_; }

  /// The 32 hash bits a slot keeps for `key` (`width` values): its tag,
  /// whose low bits are also its home slot.
  static uint32_t Tag(const Value* key, int width) {
    return static_cast<uint32_t>(HashPackedKey(key, width));
  }

  /// The key store: num_keys() rows of key_width() values in
  /// first-insertion order. The projection kernel hands its output rows
  /// in as the store, so its output is its distinct keys in
  /// first-occurrence order.
  const Value* key_data() const { return keys_; }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  static int64_t IdOf(uint64_t entry) {
    return static_cast<int64_t>(static_cast<uint32_t>(entry));
  }

  // Whether slot word `entry` holds `key`, whose tag is `tag`: the key
  // store is read only when the tags agree.
  bool Matches(uint64_t entry, uint32_t tag, const Value* key) const {
    if (static_cast<uint32_t>(entry >> 32) != tag) return false;
    const Value* stored = keys_ + IdOf(entry) * width_;
    return std::equal(key, key + width_, stored);
  }

  void AllocSlots(int64_t capacity) {
    mask_ = static_cast<uint64_t>(capacity - 1);
    grow_at_ = capacity * 2 / 3;
    slots_ = arena_->AllocSpan<uint64_t>(capacity);
    std::fill(slots_.begin(), slots_.end(), kEmpty);
  }

  // Doubles the slot array and re-seats every slot word by its tag. The
  // old slot array stays behind in the arena until the enclosing scope
  // releases it (bounded by 2x the final table size).
  void Grow() {
    const std::span<const uint64_t> old = slots_;
    AllocSlots(static_cast<int64_t>(mask_ + 1) * 2);
    for (const uint64_t entry : old) {
      if (entry == kEmpty) continue;
      uint64_t slot = (entry >> 32) & mask_;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
      slots_[slot] = entry;
    }
  }

  ExecArena* arena_;
  int width_;
  int64_t max_keys_;
  Value* keys_;
  uint64_t mask_ = 0;
  int64_t grow_at_ = 0;
  std::span<uint64_t> slots_;
  int64_t num_keys_ = 0;
};

/// Hash index over the build side of a join: a FlatKeyIndex over the key
/// columns plus a CSR layout grouping build-row ids by key, so probing
/// yields each key's matches as a contiguous span in build-row order
/// (the same emit order as the seed interpreter's bucket vectors). The
/// groups are addressable by id too, for a consumer that works once per
/// group instead of once per match.
class JoinIndex {
 public:
  /// Indexes `build` on `key_cols`; scratch comes from `arena` and stays
  /// valid until the enclosing ArenaScope releases it.
  JoinIndex(const Relation& build, std::span<const int> key_cols,
            ExecArena& arena)
      : index_(build.size(), static_cast<int>(key_cols.size()),
               arena.AllocSpan<Value>(build.size() *
                                      static_cast<int64_t>(key_cols.size()))
                   .data(),
               arena) {
    const int64_t n = build.size();
    const int k = static_cast<int>(key_cols.size());
    const int arity = build.arity();
    const Value* base = build.data();

    std::span<int64_t> group_of = arena.AllocSpan<int64_t>(n);
    const int* kc = key_cols.data();
    for (int64_t i = 0; i < n; ++i) {
      const Value* row = base + i * arity;
      Value* key = index_.next_key();
      for (int c = 0; c < k; ++c) key[c] = row[kc[c]];
      group_of[i] = index_.InsertNext();
    }

    const int64_t groups = index_.num_keys();
    offsets_ = arena.AllocSpan<int64_t>(groups + 1);
    std::fill(offsets_.begin(), offsets_.end(), int64_t{0});
    for (int64_t i = 0; i < n; ++i) offsets_[group_of[i] + 1]++;
    for (int64_t g = 0; g < groups; ++g) offsets_[g + 1] += offsets_[g];

    rows_ = arena.AllocSpan<int64_t>(n);
    std::span<int64_t> fill = arena.AllocSpan<int64_t>(groups);
    std::fill(fill.begin(), fill.end(), int64_t{0});
    for (int64_t i = 0; i < n; ++i) {
      const int64_t g = group_of[i];
      rows_[offsets_[g] + fill[g]++] = i;
    }
  }

  /// Build-row ids matching `key`, ascending; empty span when none.
  std::span<const int64_t> Probe(const Value* key) const {
    const int64_t g = FindGroup(key);
    if (g < 0) return {};
    return Group(g);
  }

  /// Id of the group of build rows keyed `key`, or -1 when none. Group
  /// ids are dense, in order of their keys' first build row.
  int64_t FindGroup(const Value* key) const { return index_.Find(key); }

  int64_t num_groups() const { return index_.num_keys(); }

  /// Build-row ids of group `g`, ascending.
  std::span<const int64_t> Group(int64_t g) const {
    return {rows_.data() + offsets_[g],
            static_cast<size_t>(offsets_[g + 1] - offsets_[g])};
  }

  /// Build rows indexed (the build side's size).
  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }

 private:
  FlatKeyIndex index_;
  std::span<int64_t> offsets_;
  std::span<int64_t> rows_;
};

}  // namespace ppr

#endif  // PPR_RELATIONAL_FLAT_HASH_H_
