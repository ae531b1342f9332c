#ifndef PPR_COMMON_HASH_H_
#define PPR_COMMON_HASH_H_

#include <cstdint>

#include "common/types.h"

namespace ppr {

/// Hashes a fixed-width key of `width` packed values (a row of join-key
/// columns). SplitMix64-style multiply-xorshift mixing per word: cheap,
/// branch-free, and well distributed even on the tiny domains the paper
/// uses (colors {1,2,3}), where identity-style hashes would collapse to a
/// handful of buckets.
inline uint64_t HashPackedKey(const Value* key, int width) {
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ static_cast<uint64_t>(width);
  for (int i = 0; i < width; ++i) {
    h ^= static_cast<uint32_t>(key[i]);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
  }
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace ppr

#endif  // PPR_COMMON_HASH_H_
