#include "core/pattern.h"

#include <utility>

namespace colossal {

Pattern MakePattern(const TransactionDatabase& db, Itemset items) {
  Pattern pattern;
  pattern.support_set = db.SupportSet(items);
  pattern.support = pattern.support_set.Count();
  pattern.items = std::move(items);
  return pattern;
}

std::vector<FrequentItemset> ToFrequentItemsets(
    const std::vector<Pattern>& patterns) {
  std::vector<FrequentItemset> result;
  result.reserve(patterns.size());
  for (const Pattern& pattern : patterns) {
    result.push_back({pattern.items, pattern.support});
  }
  return result;
}

}  // namespace colossal
