#include "core/pattern_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#include "common/arena.h"
#include "common/check.h"
#include "common/hash.h"

namespace colossal {

namespace {

// HashItems with a final avalanche, so the low bits that pick an index
// slot depend on every item.
uint64_t SlotHash(std::span<const ItemId> items) {
  uint64_t hash = HashItems(items);
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  return hash;
}

bool SameItems(std::span<const ItemId> a, std::span<const ItemId> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

void PoolMatrixDeleter::operator()(uint64_t* words) const {
  // Arena storage is reclaimed wholesale by Arena::Reset.
  if (heap) ::operator delete(words, std::align_val_t{Arena::kAlignment});
}

PatternPool::PatternPool(int64_t num_bits, int64_t capacity, Arena* arena)
    : num_bits_(num_bits),
      words_(Bitvector::WordsFor(num_bits)),
      capacity_(capacity) {
  COLOSSAL_CHECK(num_bits >= 0 && capacity >= 0)
      << "num_bits=" << num_bits << " capacity=" << capacity;
  const int64_t bytes = capacity * words_ * int64_t{sizeof(uint64_t)};
  if (bytes > 0) {
    void* storage = arena != nullptr
                        ? arena->Allocate(bytes)
                        : ::operator new(static_cast<size_t>(bytes),
                                         std::align_val_t{Arena::kAlignment});
    matrix_ = std::unique_ptr<uint64_t[], PoolMatrixDeleter>(
        static_cast<uint64_t*>(storage), PoolMatrixDeleter{arena == nullptr});
  }
  supports_.reserve(static_cast<size_t>(capacity));
  offsets_.reserve(static_cast<size_t>(capacity) + 1);
  offsets_.push_back(0);
}

StatusOr<PatternPool> PatternPool::FromPatterns(
    int64_t num_bits, const std::vector<Pattern>& patterns, Arena* arena) {
  PatternPool pool(num_bits, static_cast<int64_t>(patterns.size()), arena);
  for (const Pattern& pattern : patterns) {
    if (pattern.support_set.size_bits() != num_bits) {
      return Status::InvalidArgument(
          "pool pattern " + pattern.items.ToString() + " has a " +
          std::to_string(pattern.support_set.size_bits()) +
          "-bit support set, want " + std::to_string(num_bits));
    }
    pool.Add(pattern);
  }
  return pool;
}

bool PatternPool::Add(std::span<const ItemId> items, const uint64_t* words,
                      int64_t support) {
  if (slots_.empty()) {
    COLOSSAL_CHECK(empty()) << "Add on a pool built with AppendRow";
    // At least twice the capacity, so the table never fills and linear
    // probes stay short.
    slots_.assign(std::bit_ceil(static_cast<size_t>(capacity_) * 2 + 2), -1);
  }
  const size_t slot = FindSlot(items);
  if (slots_[slot] >= 0) return false;
  slots_[slot] = PushRow(items, words, support);
  return true;
}

bool PatternPool::Add(const Pattern& pattern) {
  COLOSSAL_CHECK(pattern.support_set.size_bits() == num_bits_)
      << "pattern width " << pattern.support_set.size_bits() << " vs pool "
      << num_bits_;
  return Add(pattern.items.items(), pattern.support_set.words(),
             pattern.support);
}

int64_t PatternPool::AppendRow(std::span<const ItemId> items,
                               const uint64_t* words, int64_t support) {
  COLOSSAL_CHECK(slots_.empty()) << "AppendRow on a pool built with Add";
  return PushRow(items, words, support);
}

int64_t PatternPool::PushRow(std::span<const ItemId> items,
                             const uint64_t* words, int64_t support) {
  COLOSSAL_CHECK(size() < capacity_) << "pool is full at " << capacity_;
  const int64_t row = size();
  if (words_ > 0) {
    const size_t bytes = static_cast<size_t>(words_) * sizeof(uint64_t);
    if (words != nullptr) {
      std::memcpy(mutable_row(row), words, bytes);
    } else {
      std::memset(mutable_row(row), 0, bytes);
    }
  }
  supports_.push_back(support);
  items_.insert(items_.end(), items.begin(), items.end());
  offsets_.push_back(items_.size());
  return row;
}

void PatternPool::RemoveRowsBelowSupport(int64_t min_support) {
  COLOSSAL_CHECK(slots_.empty()) << "compacting a pool built with Add";
  int64_t kept = 0;
  size_t item_end = 0;
  for (int64_t i = 0; i < size(); ++i) {
    const size_t begin = offsets_[static_cast<size_t>(i)];
    const size_t end = offsets_[static_cast<size_t>(i) + 1];
    if (supports_[static_cast<size_t>(i)] < min_support) continue;
    if (kept != i) {
      if (words_ > 0) {
        std::memmove(mutable_row(kept), row(i),
                     static_cast<size_t>(words_) * sizeof(uint64_t));
      }
      supports_[static_cast<size_t>(kept)] =
          supports_[static_cast<size_t>(i)];
      std::memmove(items_.data() + item_end, items_.data() + begin,
                   (end - begin) * sizeof(ItemId));
    }
    item_end += end - begin;
    offsets_[static_cast<size_t>(kept) + 1] = item_end;
    ++kept;
  }
  supports_.resize(static_cast<size_t>(kept));
  offsets_.resize(static_cast<size_t>(kept) + 1);
  items_.resize(item_end);
}

Pattern PatternPool::ToPattern(int64_t i) const {
  const std::span<const ItemId> row_items = items(i);
  Pattern pattern;
  pattern.items =
      Itemset::FromSorted(std::vector<ItemId>(row_items.begin(), row_items.end()));
  pattern.support_set = Bitvector(num_bits_);
  if (words_ > 0) {
    std::memcpy(pattern.support_set.mutable_words(), row(i),
                static_cast<size_t>(words_) * sizeof(uint64_t));
  }
  pattern.support = support(i);
  return pattern;
}

size_t PatternPool::FindSlot(std::span<const ItemId> items) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = SlotHash(items) & mask;; slot = (slot + 1) & mask) {
    const int64_t row = slots_[slot];
    if (row < 0 || SameItems(this->items(row), items)) return slot;
  }
}

int PatternPool::MinPatternSize() const {
  int smallest = 0;
  for (int64_t i = 0; i < size(); ++i) {
    if (smallest == 0 || pattern_size(i) < smallest) {
      smallest = pattern_size(i);
    }
  }
  return smallest;
}

int PatternPool::MaxPatternSize() const {
  int largest = 0;
  for (int64_t i = 0; i < size(); ++i) {
    largest = std::max(largest, pattern_size(i));
  }
  return largest;
}

int64_t PatternPool::MinSupport() const {
  return supports_.empty()
             ? 0
             : *std::min_element(supports_.begin(), supports_.end());
}

std::vector<int64_t> PatternPool::DrawSeeds(int64_t k, Rng& rng) const {
  const int64_t count = std::min(k, size());
  return rng.SampleWithoutReplacement(size(), count);
}

}  // namespace colossal
