#ifndef COLOSSAL_DATA_TRANSACTION_DATABASE_H_
#define COLOSSAL_DATA_TRANSACTION_DATABASE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvector.h"
#include "common/itemset.h"
#include "common/status.h"

namespace colossal {

// An immutable transaction database: a horizontal row store (each
// transaction is an Itemset) plus a vertical index mapping every item to
// its tidset (the Bitvector of transactions containing it).
//
// The vertical index makes support-set computation — the primitive behind
// the paper's Definition 1 (support), Definition 6 (pattern distance) and
// Lemma 1 (anti-monotonicity) — a chain of bitwise ANDs.
//
// Item ids must be < kMaxItems; the item domain is [0, num_items()) where
// num_items() is max-used-id + 1 (unused ids simply have empty tidsets).
class TransactionDatabase {
 public:
  // Upper bound on item ids, to catch corrupt input before allocating
  // absurd vertical indexes. Generous for the paper's datasets (≤ 1,736).
  static constexpr ItemId kMaxItems = 1u << 22;

  // Constructs an empty placeholder (0 transactions). Only useful as a
  // slot to move a real database into (e.g., struct members); every
  // factory-built database has ≥ 1 transaction.
  TransactionDatabase() = default;

  // Builds a database from raw transactions (unsorted ids allowed;
  // duplicates within a transaction are dropped). Fails on empty input,
  // on empty transactions, and on item ids ≥ kMaxItems.
  static StatusOr<TransactionDatabase> FromTransactions(
      const std::vector<std::vector<ItemId>>& transactions);

  // Same, but from already-normalized itemsets.
  static StatusOr<TransactionDatabase> FromItemsets(
      std::vector<Itemset> transactions);

  // Builds a database from normalized itemsets plus a prebuilt vertical
  // index (one tidset per item id in [0, tidsets.size())), skipping the
  // index construction — the snapshot loader's fast path. Validates the
  // index cheaply: tidset count and bit lengths must match the
  // transactions, and the total set-bit count must equal the total item
  // occurrences. (A full per-bit cross-check would cost as much as
  // rebuilding; snapshot integrity is additionally covered by the
  // content fingerprint.)
  static StatusOr<TransactionDatabase> FromItemsetsAndIndex(
      std::vector<Itemset> transactions, std::vector<Bitvector> tidsets);

  int64_t num_transactions() const {
    return static_cast<int64_t>(transactions_.size());
  }

  // One past the largest item id in use.
  ItemId num_items() const { return num_items_; }

  const Itemset& transaction(int64_t t) const {
    return transactions_[static_cast<size_t>(t)];
  }
  const std::vector<Itemset>& transactions() const { return transactions_; }

  // The tidset of `item`: bit t set iff transaction t contains `item`.
  const Bitvector& item_tidset(ItemId item) const;

  int64_t ItemSupport(ItemId item) const { return item_tidset(item).Count(); }

  // The support set D_α (paper §2.1): transactions containing every item
  // of `itemset`. The empty itemset is contained in every transaction.
  Bitvector SupportSet(const Itemset& itemset) const;

  // The same support set for a non-empty sorted item list, written into
  // `words` (Bitvector::WordsFor(num_transactions()) words) — how the
  // columnar PatternPool fills its rows in place.
  void WriteSupportSet(std::span<const ItemId> items, uint64_t* words) const;

  // |D_α|. Equivalent to SupportSet(itemset).Count().
  int64_t Support(const Itemset& itemset) const;

  // Converts a fractional threshold σ ∈ [0, 1] to the smallest absolute
  // support count satisfying |D_α|/|D| ≥ σ. Equivalent to
  // MinSupportCountFor(num_transactions(), sigma).
  int64_t MinSupportCount(double sigma) const;

  // Fraction of set cells: Σ|t| / (num_transactions · num_items).
  double Density() const;

  // Sum of transaction lengths.
  int64_t TotalItemOccurrences() const { return total_occurrences_; }

  // Approximate resident heap size of this database (row store plus
  // vertical index), used by the service layer's DatasetRegistry to
  // enforce its memory budget. An estimate, not an accounting of every
  // allocator header.
  int64_t ApproxMemoryBytes() const;

 private:
  std::vector<Itemset> transactions_;
  std::vector<Bitvector> tidsets_;  // indexed by item id
  ItemId num_items_ = 0;
  int64_t total_occurrences_ = 0;
};

// Converts a fractional threshold σ ∈ [0, 1] to the smallest absolute
// support count satisfying count/num_transactions ≥ σ. Free-standing so
// callers that know only the transaction count — e.g. the shard layer
// canonicalizing a request against a manifest before any shard is
// loaded — resolve σ identically to MinSupportCount on a loaded
// database.
int64_t MinSupportCountFor(int64_t num_transactions, double sigma);

}  // namespace colossal

#endif  // COLOSSAL_DATA_TRANSACTION_DATABASE_H_
