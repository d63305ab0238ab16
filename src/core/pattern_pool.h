#ifndef COLOSSAL_CORE_PATTERN_POOL_H_
#define COLOSSAL_CORE_PATTERN_POOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvector.h"
#include "common/itemset.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/pattern.h"

namespace colossal {

struct PoolMatrixDeleter {
  void operator()(uint64_t* words) const { FreeWords(words); }
};

// The candidate pool Pattern-Fusion pushes down the search tree: a set of
// patterns deduplicated by itemset, supporting the two operations the
// algorithm needs — random seed draws without replacement (Algorithm 2,
// line 3) and linear scans for ball queries and fusions (lines 5–7).
//
// The pool is columnar, so those scans walk contiguous memory:
//   * one 64-byte-aligned word matrix; row i is the support set D_α of
//     pattern i, packed into words_per_row() = ⌈|D|/64⌉ words with no
//     per-row padding (a 38-transaction database packs 8 rows into one
//     cache line);
//   * a supports array, supports[i] = |D_α|;
//   * the itemsets in CSR form: one item array plus row offsets.
// A row costs 8·words_per_row() + 16 bytes plus 4 per item.
//
// Capacity is fixed at construction — every pool is sized exactly when
// it is built. A pool is built one of two ways, never both: by Add, which deduplicates by itemset (first writer
// wins) through an open-addressing index of row ids that hashes each
// row's CSR slice in place; or in place by AppendRow, whose caller
// guarantees unique itemsets and which never builds the index.
class PatternPool {
 public:
  // An empty pool for `capacity` rows of `num_bits` bits each.
  PatternPool(int64_t num_bits, int64_t capacity);

  PatternPool(PatternPool&&) noexcept = default;
  PatternPool& operator=(PatternPool&&) noexcept = default;
  PatternPool(const PatternPool&) = delete;
  PatternPool& operator=(const PatternPool&) = delete;

  // Copies `patterns` into a pool of exactly patterns.size() rows,
  // dropping repeated itemsets (first writer wins). Fails when a
  // pattern's support set is not `num_bits` wide.
  static StatusOr<PatternPool> FromPatterns(
      int64_t num_bits, const std::vector<Pattern>& patterns);

  // Inserts the row (items, support set `words`, support) unless an
  // equal itemset is already present; returns true iff inserted.
  // `items` must be sorted and unique, `words` words_per_row() words.
  // Not for a pool that AppendRow has filled.
  bool Add(std::span<const ItemId> items, const uint64_t* words,
           int64_t support);
  // Same for a pattern whose support set is num_bits() wide.
  bool Add(const Pattern& pattern);

  // In-place building: appends a row for `items` with support set
  // `words` (words_per_row() words) and `support`; with no `words`, the
  // support set is all zeros and the support 0, for the caller to fill
  // through mutable_row()/set_support(). Not deduplicated — the caller
  // guarantees `items` is not yet in the pool. Not for a pool that Add
  // has filled. Returns the new row's index.
  int64_t AppendRow(std::span<const ItemId> items,
                    const uint64_t* words = nullptr, int64_t support = 0);
  uint64_t* mutable_row(int64_t i) { return matrix_.get() + i * words_; }
  void set_support(int64_t i, int64_t support) {
    supports_[static_cast<size_t>(i)] = support;
  }

  // Removes every row whose support is below `min_support`, moving the
  // survivors down in place; their relative order is kept. For pools
  // built with AppendRow.
  void RemoveRowsBelowSupport(int64_t min_support);

  int64_t size() const { return static_cast<int64_t>(supports_.size()); }
  bool empty() const { return supports_.empty(); }
  int64_t num_bits() const { return num_bits_; }
  int64_t words_per_row() const { return words_; }

  const uint64_t* row(int64_t i) const { return matrix_.get() + i * words_; }
  int64_t support(int64_t i) const {
    return supports_[static_cast<size_t>(i)];
  }
  std::span<const ItemId> items(int64_t i) const {
    const size_t begin = offsets_[static_cast<size_t>(i)];
    return {items_.data() + begin, offsets_[static_cast<size_t>(i) + 1] - begin};
  }
  int pattern_size(int64_t i) const {
    return static_cast<int>(offsets_[static_cast<size_t>(i) + 1] -
                            offsets_[static_cast<size_t>(i)]);
  }

  // A copy of row i, independent of the pool.
  Pattern ToPattern(int64_t i) const;

  // Cardinality of the smallest / largest pattern; 0 on an empty pool.
  // Lemma 5 states the minimum is non-decreasing across fusion
  // iterations, which the algorithm asserts via these.
  int MinPatternSize() const;
  int MaxPatternSize() const;
  // The smallest support; 0 on an empty pool.
  int64_t MinSupport() const;

  // Draws min(k, size()) distinct pattern indices uniformly at random.
  std::vector<int64_t> DrawSeeds(int64_t k, Rng& rng) const;

 private:
  // AppendRow with no dedup or index check.
  int64_t PushRow(std::span<const ItemId> items, const uint64_t* words,
                  int64_t support);
  // The index slot holding a row with `items`, or the empty slot where
  // one would go. Requires a non-empty index.
  size_t FindSlot(std::span<const ItemId> items) const;

  int64_t num_bits_ = 0;
  int64_t words_ = 0;
  int64_t capacity_ = 0;
  std::unique_ptr<uint64_t[], PoolMatrixDeleter> matrix_;
  std::vector<int64_t> supports_;
  std::vector<ItemId> items_;
  std::vector<size_t> offsets_;  // size() + 1 entries
  // Row ids, -1 = empty; power-of-two size. Empty until the first Add.
  std::vector<int64_t> slots_;
};

}  // namespace colossal

#endif  // COLOSSAL_CORE_PATTERN_POOL_H_
