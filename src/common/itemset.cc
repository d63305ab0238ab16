#include "common/itemset.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace colossal {

namespace {

bool IsSortedUnique(const std::vector<ItemId>& items) {
  for (size_t i = 1; i < items.size(); ++i) {
    if (items[i - 1] >= items[i]) return false;
  }
  return true;
}

}  // namespace

Itemset::Itemset(std::initializer_list<ItemId> items)
    : items_(items.begin(), items.end()) {
  std::sort(items_.begin(), items_.end());
  items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
}

Itemset Itemset::FromSorted(std::vector<ItemId> items) {
  COLOSSAL_CHECK(IsSortedUnique(items))
      << "FromSorted requires strictly increasing items";
  Itemset result;
  result.items_ = std::move(items);
  return result;
}

Itemset Itemset::FromUnsorted(std::vector<ItemId> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  Itemset result;
  result.items_ = std::move(items);
  return result;
}

Itemset Itemset::Single(ItemId item) {
  Itemset result;
  result.items_.push_back(item);
  return result;
}

bool Itemset::Contains(ItemId item) const {
  return std::binary_search(items_.begin(), items_.end(), item);
}

bool Itemset::IsSubsetOf(const Itemset& other) const {
  return std::includes(other.items_.begin(), other.items_.end(),
                       items_.begin(), items_.end());
}

bool Itemset::IsProperSubsetOf(const Itemset& other) const {
  return size() < other.size() && IsSubsetOf(other);
}

std::string Itemset::ToString() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out << " ";
    out << items_[i];
  }
  out << "}";
  return out.str();
}

Itemset Union(const Itemset& a, const Itemset& b) {
  std::vector<ItemId> merged;
  merged.reserve(static_cast<size_t>(a.size() + b.size()));
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
  return Itemset::FromSorted(std::move(merged));
}

Itemset Intersection(const Itemset& a, const Itemset& b) {
  std::vector<ItemId> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return Itemset::FromSorted(std::move(common));
}

Itemset Difference(const Itemset& a, const Itemset& b) {
  std::vector<ItemId> rest;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(rest));
  return Itemset::FromSorted(std::move(rest));
}

int IntersectionSize(const Itemset& a, const Itemset& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  int count = 0;
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

int EditDistance(const Itemset& a, const Itemset& b) {
  const int common = IntersectionSize(a, b);
  const int united = a.size() + b.size() - common;
  return united - common;
}

}  // namespace colossal
