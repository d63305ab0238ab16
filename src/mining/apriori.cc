#include "mining/apriori.h"

#include <algorithm>
#include <memory>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "common/bitvector_kernels.h"
#include "common/thread_pool.h"

namespace colossal {

namespace {

// Whether the lexicographically ordered `level` has a row equal to
// `items`: a binary search over its CSR item slices.
bool HasRow(const PatternPool& level, std::span<const ItemId> items) {
  const auto rows = std::views::iota(int64_t{0}, level.size());
  const auto it = std::ranges::lower_bound(
      rows, items, std::ranges::lexicographical_compare,
      [&level](int64_t row) { return level.items(row); });
  return it != rows.end() && std::ranges::equal(level.items(*it), items);
}

// The count pass for left parent `a`: appends (right parent, support) of
// each frequent candidate of row a, in join order, to `out`, and counts
// expanded nodes on `stats`. Reads `level` only, so rows shard across
// workers; row outputs concatenated in row order are the serial
// enumeration. Returns false iff the node budget tripped mid-row, with
// budget_exceeded set on `stats` — checked per candidate, like every
// miner's budget.
bool JoinRow(const PatternPool& level, int64_t a, const MinerOptions& options,
             std::vector<std::pair<int64_t, int64_t>>& out, MinerStats& stats) {
  const BitvectorKernels& kernels = ActiveBitvectorKernels();
  const std::span<const ItemId> left = level.items(a);
  const size_t prefix = left.size() - 1;
  // The candidate is left ∪ {right.back()}; dropping either of its last
  // two items leaves a join parent, and `subset` holds each other drop.
  std::vector<ItemId> subset(left.size());
  for (int64_t b = a + 1; b < level.size(); ++b) {
    const std::span<const ItemId> right = level.items(b);
    // Sorted order: no later b shares the prefix either.
    if (!std::equal(left.begin(), left.begin() + prefix, right.begin())) break;

    // Prune step: every (size−1)-subset must be frequent.
    bool all_subsets_frequent = true;
    for (size_t drop = 0; drop < prefix; ++drop) {
      std::copy(left.begin(), left.begin() + drop, subset.begin());
      std::copy(left.begin() + drop + 1, left.end(), subset.begin() + drop);
      subset.back() = right.back();
      if (!HasRow(level, subset)) {
        all_subsets_frequent = false;
        break;
      }
    }
    if (!all_subsets_frequent) continue;

    ++stats.nodes_expanded;
    if (options.max_nodes != 0 &&
        stats.nodes_expanded > options.max_nodes) {
      stats.budget_exceeded = true;
      return false;
    }
    const int64_t support = kernels.and_count_words(
        level.row(a), level.row(b), level.words_per_row());
    if (support >= options.min_support_count) out.push_back({b, support});
  }
  return true;
}

// Level 1: the allowed frequent items with their tidsets. Empty, with
// budget_exceeded set on `stats`, when the node budget trips.
PatternPool FirstLevel(const TransactionDatabase& db,
                       const MinerOptions& options, MinerStats& stats) {
  std::vector<ItemId> frequent;
  for (ItemId item = 0; item < db.num_items(); ++item) {
    // Constraint pushdown: a disallowed item is not a search node — it
    // is skipped before the node counter, the popcount, and the tidset
    // copy, so excluded vocabulary never reaches a level row.
    if (!options.constraints.ItemAllowed(item)) continue;
    ++stats.nodes_expanded;
    if (options.max_nodes != 0 && stats.nodes_expanded > options.max_nodes) {
      stats.budget_exceeded = true;
      return PatternPool(db.num_transactions(), 0);
    }
    if (db.item_tidset(item).Count() >= options.min_support_count) {
      frequent.push_back(item);
    }
  }
  PatternPool level(db.num_transactions(),
                    static_cast<int64_t>(frequent.size()));
  for (const ItemId& item : frequent) {
    const Bitvector& tidset = db.item_tidset(item);
    level.AppendRow({&item, 1}, tidset.words(), tidset.Count());
  }
  return level;
}

// Joins `level` into the next one, sized exactly by the count pass.
// Empty, with budget_exceeded set on `stats`, when the node budget trips
// (serial runs only).
PatternPool NextLevel(const PatternPool& level, const MinerOptions& options,
                      ThreadPool* workers, MinerStats& stats) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> survivors(
      static_cast<size_t>(level.size()));
  if (workers != nullptr) {
    // No budget in this mode, so JoinRow cannot trip. Rows are joined
    // into locals and stored once: workers take neighbouring rows, whose
    // slots share cache lines.
    std::vector<int64_t> row_nodes(static_cast<size_t>(level.size()));
    workers->ParallelFor(level.size(), [&](int64_t a) {
      std::vector<std::pair<int64_t, int64_t>> row;
      MinerStats row_stats;
      JoinRow(level, a, options, row, row_stats);
      survivors[static_cast<size_t>(a)] = std::move(row);
      row_nodes[static_cast<size_t>(a)] = row_stats.nodes_expanded;
    });
    for (int64_t nodes : row_nodes) stats.nodes_expanded += nodes;
  } else {
    for (int64_t a = 0; a < level.size(); ++a) {
      if (!JoinRow(level, a, options, survivors[static_cast<size_t>(a)],
                   stats)) {
        return PatternPool(level.num_bits(), 0);
      }
    }
  }

  int64_t total = 0;
  for (const auto& row : survivors) total += row.size();
  const BitvectorKernels& kernels = ActiveBitvectorKernels();
  const int64_t words = level.words_per_row();
  PatternPool next(level.num_bits(), total);
  std::vector<ItemId> items;
  for (int64_t a = 0; a < level.size(); ++a) {
    const std::span<const ItemId> left = level.items(a);
    for (const auto& [right, support] : survivors[static_cast<size_t>(a)]) {
      items.assign(left.begin(), left.end());
      items.push_back(level.items(right).back());
      const int64_t row = next.AppendRow(items, level.row(a), support);
      kernels.and_words(next.mutable_row(row), level.row(right), words);
    }
  }
  return next;
}

}  // namespace

StatusOr<MinerStats> MineAprioriLevels(
    const TransactionDatabase& db, const MinerOptions& options,
    const std::function<void(PatternPool level)>& visit) {
  Status valid = ValidateMinerOptions(db, options);
  if (!valid.ok()) return valid;

  MinerStats stats;
  const int max_size = options.max_pattern_size == 0
                           ? static_cast<int>(db.num_items())
                           : options.max_pattern_size;
  // Budgeted runs stay serial: the truncation point depends on the exact
  // candidate visit order, which parallel row sharding does not preserve
  // mid-row.
  const int num_threads =
      options.max_nodes != 0 ? 1 : ResolveNumThreads(options.num_threads);
  // Spawned lazily, on the first level that actually has join work.
  std::unique_ptr<ThreadPool> workers;

  PatternPool level = FirstLevel(db, options, stats);
  if (stats.budget_exceeded) return stats;
  // Join step: pairs sharing the first size−2 items. Each level is
  // sorted lexicographically (the join writes rows in that order), so
  // joinable partners are contiguous.
  for (int size = 2; size <= max_size && level.size() >= 2; ++size) {
    if (num_threads > 1 && workers == nullptr) {
      workers = std::make_unique<ThreadPool>(num_threads);
    }
    PatternPool next = NextLevel(level, options, workers.get(), stats);
    visit(std::move(level));
    if (stats.budget_exceeded) return stats;
    level = std::move(next);
  }
  visit(std::move(level));
  return stats;
}

StatusOr<MiningResult> MineApriori(const TransactionDatabase& db,
                                   const MinerOptions& options) {
  MiningResult result;
  StatusOr<MinerStats> stats =
      MineAprioriLevels(db, options, [&result](PatternPool level) {
        for (int64_t i = 0; i < level.size(); ++i) {
          const std::span<const ItemId> items = level.items(i);
          result.patterns.push_back(
              {Itemset::FromSorted({items.begin(), items.end()}),
               level.support(i)});
        }
      });
  if (!stats.ok()) return stats.status();
  result.stats = *stats;
  return result;
}

}  // namespace colossal
