#ifndef COLOSSAL_COMMON_HASH_H_
#define COLOSSAL_COMMON_HASH_H_

#include <cstdint>
#include <span>

#include "common/itemset.h"

namespace colossal {

// Mixes `value` into `seed` (boost::hash_combine-style, 64-bit variant).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // Constant is the 64-bit golden ratio; shifts spread entropy across words.
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

// FNV-1a offset basis / prime, shared by the byte and structured hashes
// below so fingerprints are stable across builds and platforms.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

// FNV-1a over raw bytes, chainable via `seed` (pass the previous digest
// to hash a concatenation). Used for dataset fingerprints and canonical
// request keys.
inline uint64_t HashBytes(const void* data, size_t size,
                          uint64_t seed = kFnvOffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

// Content hash of a sorted item list, for use in unordered containers
// and PatternPool's row index (which hashes its CSR slices in place).
inline uint64_t HashItems(std::span<const ItemId> items) {
  uint64_t hash = kFnvOffsetBasis;
  for (ItemId item : items) {
    hash = HashCombine(hash, item);
  }
  return HashCombine(hash, static_cast<uint64_t>(items.size()));
}

// Content hash of an itemset, for use in unordered containers.
inline uint64_t HashItemset(const Itemset& itemset) {
  return HashItems(itemset.items());
}

// Functor adapters for std::unordered_{set,map}.
struct ItemsetHash {
  size_t operator()(const Itemset& itemset) const {
    return static_cast<size_t>(HashItemset(itemset));
  }
};

struct ItemsetEq {
  bool operator()(const Itemset& a, const Itemset& b) const { return a == b; }
};

}  // namespace colossal

#endif  // COLOSSAL_COMMON_HASH_H_
