#include "data/transaction_database.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/bitvector_kernels.h"
#include "common/check.h"

namespace colossal {

StatusOr<TransactionDatabase> TransactionDatabase::FromTransactions(
    const std::vector<std::vector<ItemId>>& transactions) {
  std::vector<Itemset> itemsets;
  itemsets.reserve(transactions.size());
  for (const auto& transaction : transactions) {
    itemsets.push_back(Itemset::FromUnsorted(transaction));
  }
  return FromItemsets(std::move(itemsets));
}

StatusOr<TransactionDatabase> TransactionDatabase::FromItemsets(
    std::vector<Itemset> transactions) {
  if (transactions.empty()) {
    return Status::InvalidArgument("database must contain at least one transaction");
  }
  ItemId max_item = 0;
  for (size_t t = 0; t < transactions.size(); ++t) {
    const Itemset& itemset = transactions[t];
    if (itemset.empty()) {
      return Status::InvalidArgument("transaction " + std::to_string(t) +
                                     " is empty");
    }
    const ItemId largest = itemset[itemset.size() - 1];
    if (largest >= kMaxItems) {
      return Status::InvalidArgument(
          "item id " + std::to_string(largest) + " exceeds limit " +
          std::to_string(kMaxItems));
    }
    max_item = std::max(max_item, largest);
  }

  TransactionDatabase db;
  db.transactions_ = std::move(transactions);
  db.num_items_ = max_item + 1;
  db.tidsets_.assign(db.num_items_,
                     Bitvector(static_cast<int64_t>(db.transactions_.size())));
  for (size_t t = 0; t < db.transactions_.size(); ++t) {
    for (ItemId item : db.transactions_[t]) {
      db.tidsets_[item].Set(static_cast<int64_t>(t));
    }
    db.total_occurrences_ += db.transactions_[t].size();
  }
  return db;
}

StatusOr<TransactionDatabase> TransactionDatabase::FromItemsetsAndIndex(
    std::vector<Itemset> transactions, std::vector<Bitvector> tidsets) {
  if (transactions.empty()) {
    return Status::InvalidArgument("database must contain at least one transaction");
  }
  ItemId max_item = 0;
  int64_t total_occurrences = 0;
  for (size_t t = 0; t < transactions.size(); ++t) {
    const Itemset& itemset = transactions[t];
    if (itemset.empty()) {
      return Status::InvalidArgument("transaction " + std::to_string(t) +
                                     " is empty");
    }
    const ItemId largest = itemset[itemset.size() - 1];
    if (largest >= kMaxItems) {
      return Status::InvalidArgument(
          "item id " + std::to_string(largest) + " exceeds limit " +
          std::to_string(kMaxItems));
    }
    max_item = std::max(max_item, largest);
    total_occurrences += itemset.size();
  }

  if (tidsets.size() != static_cast<size_t>(max_item) + 1) {
    return Status::InvalidArgument(
        "vertical index has " + std::to_string(tidsets.size()) +
        " tidsets, transactions imply " + std::to_string(max_item + 1));
  }
  int64_t total_bits = 0;
  for (size_t item = 0; item < tidsets.size(); ++item) {
    if (tidsets[item].size_bits() !=
        static_cast<int64_t>(transactions.size())) {
      return Status::InvalidArgument(
          "tidset " + std::to_string(item) + " has " +
          std::to_string(tidsets[item].size_bits()) + " bits, want " +
          std::to_string(transactions.size()));
    }
    total_bits += tidsets[item].Count();
  }
  if (total_bits != total_occurrences) {
    return Status::InvalidArgument(
        "vertical index holds " + std::to_string(total_bits) +
        " set bits, transactions hold " + std::to_string(total_occurrences) +
        " item occurrences");
  }

  TransactionDatabase db;
  db.transactions_ = std::move(transactions);
  db.num_items_ = max_item + 1;
  db.tidsets_ = std::move(tidsets);
  db.total_occurrences_ = total_occurrences;
  return db;
}

int64_t TransactionDatabase::ApproxMemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(TransactionDatabase));
  for (const Itemset& transaction : transactions_) {
    bytes += static_cast<int64_t>(sizeof(Itemset)) +
             static_cast<int64_t>(transaction.size()) *
                 static_cast<int64_t>(sizeof(ItemId));
  }
  for (const Bitvector& tidset : tidsets_) {
    bytes += static_cast<int64_t>(sizeof(Bitvector)) +
             (tidset.size_bits() + 63) / 64 * 8;
  }
  return bytes;
}

const Bitvector& TransactionDatabase::item_tidset(ItemId item) const {
  COLOSSAL_CHECK(item < num_items_) << "item=" << item;
  return tidsets_[item];
}

Bitvector TransactionDatabase::SupportSet(const Itemset& itemset) const {
  if (itemset.empty()) return Bitvector::AllSet(num_transactions());
  Bitvector support(num_transactions());
  WriteSupportSet(itemset.items(), support.mutable_words());
  return support;
}

void TransactionDatabase::WriteSupportSet(std::span<const ItemId> items,
                                          uint64_t* words) const {
  COLOSSAL_CHECK(!items.empty());
  const BitvectorKernels& kernels = ActiveBitvectorKernels();
  const int64_t num_words = Bitvector::WordsFor(num_transactions());
  if (num_words > 0) {
    std::memcpy(words, item_tidset(items[0]).words(),
                static_cast<size_t>(num_words) * sizeof(uint64_t));
  }
  for (size_t i = 1; i < items.size(); ++i) {
    kernels.and_words(words, item_tidset(items[i]).words(), num_words);
  }
}

int64_t TransactionDatabase::Support(const Itemset& itemset) const {
  return SupportSet(itemset).Count();
}

int64_t MinSupportCountFor(int64_t num_transactions, double sigma) {
  COLOSSAL_CHECK(sigma >= 0.0 && sigma <= 1.0) << "sigma=" << sigma;
  const double raw = sigma * static_cast<double>(num_transactions);
  // ceil with a tolerance so that e.g. 0.3 * 10 == 3, not 4.
  return static_cast<int64_t>(std::ceil(raw - 1e-9));
}

int64_t TransactionDatabase::MinSupportCount(double sigma) const {
  return MinSupportCountFor(num_transactions(), sigma);
}

double TransactionDatabase::Density() const {
  if (num_items_ == 0) return 0.0;
  return static_cast<double>(total_occurrences_) /
         (static_cast<double>(num_transactions()) *
          static_cast<double>(num_items_));
}

}  // namespace colossal
