#ifndef PPR_RELATIONAL_FLAT_HASH_H_
#define PPR_RELATIONAL_FLAT_HASH_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/arena.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/types.h"
#include "relational/relation.h"

namespace ppr {

/// Flat open-addressing hash table over fixed-width keys.
///
/// Keys are rows of `key_width` values packed contiguously into an
/// arena-backed store sized for the caller's upper bound on distinct
/// keys (operators know it exactly: a key per input row at most). The
/// slot array holds key ids (-1 = empty), is probed linearly, and starts
/// small, doubling when load exceeds ~0.7 — distinct counts are usually
/// far below the upper bound, and a rehash only re-seats ids (keys are
/// never copied). No per-key heap allocation — the replacement for the
/// seed's unordered_{map,set}<std::vector<Value>>.
class FlatKeyIndex {
 public:
  /// Accepts up to `max_keys` distinct keys of `key_width` values each;
  /// all storage comes from `arena`, which must outlive the index.
  FlatKeyIndex(int64_t max_keys, int key_width, ExecArena& arena)
      : arena_(&arena), width_(key_width) {
    PPR_DCHECK(max_keys >= 0 && key_width >= 0);
    // Next power of two keeping load factor under ~0.7, but never more
    // than 2048 slots upfront: the common case holds far fewer distinct
    // keys than max_keys, and doubling from a small table costs less
    // than clearing a huge one.
    const int64_t hinted = std::min<int64_t>(max_keys, 1024);
    int64_t capacity = 16;
    while (capacity * 2 < hinted * 3) capacity <<= 1;
    mask_ = static_cast<uint64_t>(capacity - 1);
    grow_at_ = capacity * 2 / 3;
    slots_ = arena.AllocSpan<int64_t>(capacity);
    std::fill(slots_.begin(), slots_.end(), int64_t{-1});
    keys_ = arena.AllocSpan<Value>(max_keys * key_width);
  }

  /// Returns the id of `key` (dense, in first-insertion order), inserting
  /// it when new; `*inserted` reports whether this call created it.
  int64_t InsertOrFind(const Value* key, bool* inserted) {
    if (num_keys_ >= grow_at_) Grow();
    uint64_t slot = HashPackedKey(key, width_) & mask_;
    while (true) {
      const int64_t id = slots_[slot];
      if (id < 0) {
        const int64_t fresh = num_keys_++;
        PPR_DCHECK(static_cast<size_t>(fresh * width_) <= keys_.size());
        slots_[slot] = fresh;
        std::copy(key, key + width_, keys_.data() + fresh * width_);
        *inserted = true;
        return fresh;
      }
      if (std::equal(key, key + width_, keys_.data() + id * width_)) {
        *inserted = false;
        return id;
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// Returns the id of `key`, or -1 when absent.
  int64_t Find(const Value* key) const {
    uint64_t slot = HashPackedKey(key, width_) & mask_;
    while (true) {
      const int64_t id = slots_[slot];
      if (id < 0) return -1;
      if (std::equal(key, key + width_, keys_.data() + id * width_)) {
        return id;
      }
      slot = (slot + 1) & mask_;
    }
  }

  int64_t num_keys() const { return num_keys_; }
  int key_width() const { return width_; }

  /// The packed key store: num_keys() rows of key_width() values in
  /// first-insertion order. The projection kernel reads a morsel-local
  /// index's keys straight out of here — morsel-local distinct keys in
  /// first-occurrence order — so the global merge can reproduce the
  /// one-morsel emit order exactly.
  const Value* key_data() const { return keys_.data(); }

 private:
  // Doubles the slot array and re-seats existing ids from the packed key
  // store. The old slot array stays behind in the arena until the
  // enclosing scope releases it (bounded by 2x the final table size).
  void Grow() {
    const int64_t new_cap = static_cast<int64_t>(mask_ + 1) * 2;
    mask_ = static_cast<uint64_t>(new_cap - 1);
    grow_at_ = new_cap * 2 / 3;
    slots_ = arena_->AllocSpan<int64_t>(new_cap);
    std::fill(slots_.begin(), slots_.end(), int64_t{-1});
    for (int64_t id = 0; id < num_keys_; ++id) {
      uint64_t slot = HashPackedKey(keys_.data() + id * width_, width_) & mask_;
      while (slots_[slot] >= 0) slot = (slot + 1) & mask_;
      slots_[slot] = id;
    }
  }

  ExecArena* arena_;
  int width_;
  uint64_t mask_ = 0;
  int64_t grow_at_ = 0;
  std::span<int64_t> slots_;
  std::span<Value> keys_;
  int64_t num_keys_ = 0;
};

/// Hash index over the build side of a join: a FlatKeyIndex over the key
/// columns plus a CSR layout grouping build-row ids by key, so probing
/// yields each key's matches as a contiguous span in build-row order
/// (the same emit order as the seed interpreter's bucket vectors).
class JoinIndex {
 public:
  /// Indexes `build` on `key_cols`; scratch comes from `arena` and stays
  /// valid until the enclosing ArenaScope releases it.
  JoinIndex(const Relation& build, std::span<const int> key_cols,
            ExecArena& arena)
      : index_(build.size(), static_cast<int>(key_cols.size()), arena) {
    const int64_t n = build.size();
    const int k = static_cast<int>(key_cols.size());
    const int arity = build.arity();
    const Value* base = build.data();

    std::span<int64_t> group_of = arena.AllocSpan<int64_t>(n);
    Value* key = arena.AllocSpan<Value>(std::max(k, 1)).data();
    const int* kc = key_cols.data();
    for (int64_t i = 0; i < n; ++i) {
      const Value* row = base + i * arity;
      for (int c = 0; c < k; ++c) key[c] = row[kc[c]];
      bool inserted;
      group_of[i] = index_.InsertOrFind(key, &inserted);
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
    const int64_t g = index_.Find(key);
    if (g < 0) return {};
    return {rows_.data() + offsets_[g],
            static_cast<size_t>(offsets_[g + 1] - offsets_[g])};
  }

 private:
  FlatKeyIndex index_;
  std::span<int64_t> offsets_;
  std::span<int64_t> rows_;
};

}  // namespace ppr

#endif  // PPR_RELATIONAL_FLAT_HASH_H_
