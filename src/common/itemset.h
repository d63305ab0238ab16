#ifndef COLOSSAL_COMMON_ITEMSET_H_
#define COLOSSAL_COMMON_ITEMSET_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace colossal {

// Identifier of an item in a transaction database. Items are dense,
// zero-based after TransactionDatabase remapping, but Itemset itself
// accepts arbitrary ids.
using ItemId = uint32_t;

// An immutable-by-convention set of items, stored as a sorted vector of
// unique ids. This is the pattern representation used everywhere in the
// library ("pattern" == frequent itemset in the paper's terminology).
//
// Invariant: items() is strictly increasing.
class Itemset {
 public:
  // Constructs the empty itemset.
  Itemset() = default;

  // Convenience literal syntax for tests/examples: Itemset({3, 1, 2}).
  // Input need not be sorted; duplicates are removed.
  Itemset(std::initializer_list<ItemId> items);

  // Builds from items that are already sorted and unique. Checked.
  static Itemset FromSorted(std::vector<ItemId> items);

  // Builds from arbitrary items: sorts and deduplicates.
  static Itemset FromUnsorted(std::vector<ItemId> items);

  // Builds the singleton {item}.
  static Itemset Single(ItemId item);

  int size() const { return static_cast<int>(items_.size()); }
  bool empty() const { return items_.empty(); }
  const std::vector<ItemId>& items() const { return items_; }
  ItemId operator[](int i) const { return items_[static_cast<size_t>(i)]; }

  std::vector<ItemId>::const_iterator begin() const { return items_.begin(); }
  std::vector<ItemId>::const_iterator end() const { return items_.end(); }

  // Returns true iff `item` is a member. O(log n).
  bool Contains(ItemId item) const;

  // Returns true iff every item of *this is in `other`. O(n + m).
  bool IsSubsetOf(const Itemset& other) const;

  // Returns true iff this is a subset of `other` and not equal to it.
  bool IsProperSubsetOf(const Itemset& other) const;

  // Renders as "{a b c}" using decimal ids.
  std::string ToString() const;

  friend bool operator==(const Itemset& a, const Itemset& b) {
    return a.items_ == b.items_;
  }
  // Lexicographic order on the sorted item vectors; used for deterministic
  // output ordering, not for subset semantics.
  friend bool operator<(const Itemset& a, const Itemset& b) {
    return a.items_ < b.items_;
  }

 private:
  std::vector<ItemId> items_;
};

// Set algebra. All inputs/outputs are valid Itemsets (sorted, unique).

// Returns a ∪ b.
Itemset Union(const Itemset& a, const Itemset& b);

// Returns a ∩ b.
Itemset Intersection(const Itemset& a, const Itemset& b);

// Returns a \ b.
Itemset Difference(const Itemset& a, const Itemset& b);

// Returns |a ∩ b| without materializing the intersection.
int IntersectionSize(const Itemset& a, const Itemset& b);

// Itemset edit distance (paper Definition 8):
//   Edit(a, b) = |a ∪ b| − |a ∩ b|,
// i.e., the number of single-item insertions/deletions transforming a
// into b. A metric on itemsets.
int EditDistance(const Itemset& a, const Itemset& b);

}  // namespace colossal

#endif  // COLOSSAL_COMMON_ITEMSET_H_
