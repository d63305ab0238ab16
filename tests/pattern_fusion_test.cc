#include "core/pattern_fusion.h"

#include <algorithm>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pattern_distance.h"
#include "core/pattern_pool.h"
#include "data/generators.h"

namespace colossal {
namespace {

TEST(PatternPoolTest, DeduplicatesByItemset) {
  TransactionDatabase db = MakePaperFigure3();
  PatternPool pool(db.num_transactions(), 3);
  EXPECT_TRUE(pool.Add(MakePattern(db, Itemset({0}))));
  EXPECT_FALSE(pool.Add(MakePattern(db, Itemset({0}))));
  EXPECT_TRUE(pool.Add(MakePattern(db, Itemset({0, 1}))));
  EXPECT_EQ(pool.size(), 2);
  EXPECT_FALSE(pool.Add(MakePattern(db, Itemset({0, 1}))));
  EXPECT_TRUE(pool.Add(MakePattern(db, Itemset({1}))));
}

TEST(PatternPoolTest, SizeExtremes) {
  TransactionDatabase db = MakePaperFigure3();
  PatternPool pool(db.num_transactions(), 2);
  EXPECT_EQ(pool.MinPatternSize(), 0);
  pool.Add(MakePattern(db, Itemset({0, 1, 3})));
  pool.Add(MakePattern(db, Itemset({2})));
  EXPECT_EQ(pool.MinPatternSize(), 1);
  EXPECT_EQ(pool.MaxPatternSize(), 3);
}

TEST(PatternPoolTest, DrawSeedsAreDistinctAndClamped) {
  TransactionDatabase db = MakePaperFigure3();
  PatternPool pool(db.num_transactions(), 5);
  for (ItemId item = 0; item < 5; ++item) {
    pool.Add(MakePattern(db, Itemset::Single(item)));
  }
  Rng rng(3);
  std::vector<int64_t> seeds = pool.DrawSeeds(3, rng);
  EXPECT_EQ(seeds.size(), 3u);
  std::set<int64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 3u);
  EXPECT_EQ(pool.DrawSeeds(100, rng).size(), 5u);
}

// Patterns of every size 1..4 over a 150-transaction (3-word) database,
// in (size, lex) order — the shape of an initial pool.
std::vector<Pattern> SizeLexPatterns(const TransactionDatabase& db) {
  std::vector<Pattern> patterns;
  for (int size = 1; size <= 4; ++size) {
    for (ItemId first = 0; first + size <= 8; ++first) {
      std::vector<ItemId> items;
      for (int k = 0; k < size; ++k) items.push_back(first + k);
      patterns.push_back(MakePattern(db, Itemset::FromSorted(items)));
    }
  }
  return patterns;
}

TransactionDatabase ThreeWordDatabase() {
  RandomDatabaseOptions options;
  options.num_transactions = 150;
  options.num_items = 8;
  options.density = 0.7;
  options.seed = 5;
  return MakeRandomDatabase(options);
}

TEST(PatternPoolTest, CsrItemsAndRowsRoundTripThroughToPattern) {
  TransactionDatabase db = ThreeWordDatabase();
  const std::vector<Pattern> patterns = SizeLexPatterns(db);
  StatusOr<PatternPool> pool =
      PatternPool::FromPatterns(db.num_transactions(), patterns);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  ASSERT_EQ(pool->size(), static_cast<int64_t>(patterns.size()));
  EXPECT_EQ(pool->words_per_row(), 3);
  for (int64_t i = 0; i < pool->size(); ++i) {
    const Pattern& expected = patterns[static_cast<size_t>(i)];
    const std::span<const ItemId> items = pool->items(i);
    EXPECT_EQ(std::vector<ItemId>(items.begin(), items.end()),
              expected.items.items());
    EXPECT_EQ(pool->pattern_size(i), expected.size());
    EXPECT_EQ(pool->support(i), expected.support);
    for (int64_t w = 0; w < pool->words_per_row(); ++w) {
      EXPECT_EQ(pool->row(i)[w], expected.support_set.words()[w]);
    }
    const Pattern copy = pool->ToPattern(i);
    EXPECT_EQ(copy, expected);
  }
  EXPECT_EQ(pool->MinPatternSize(), 1);
  EXPECT_EQ(pool->MaxPatternSize(), 4);

  Pattern narrow = MakePattern(MakePaperFigure3(), Itemset({0}));
  EXPECT_FALSE(PatternPool::FromPatterns(db.num_transactions(), {narrow}).ok());
}

TEST(PatternPoolTest, DedupIsFirstWriterWins) {
  TransactionDatabase db = ThreeWordDatabase();
  const Pattern first = MakePattern(db, Itemset({1, 2}));
  // Same itemset, different support set and support: must be dropped.
  Pattern second = MakePattern(db, Itemset({1, 3}));
  second.items = first.items;
  ASSERT_NE(second.support_set, first.support_set);

  PatternPool pool(db.num_transactions(), 4);
  EXPECT_TRUE(pool.Add(first));
  EXPECT_FALSE(pool.Add(second));
  ASSERT_EQ(pool.size(), 1);
  EXPECT_EQ(pool.ToPattern(0), first);

  EXPECT_TRUE(pool.Add(MakePattern(db, Itemset({5}))));
  EXPECT_FALSE(pool.Add(MakePattern(db, Itemset({5}))));
  EXPECT_FALSE(pool.Add(first));
  EXPECT_EQ(pool.size(), 2);
  EXPECT_EQ(pool.ToPattern(0), first);

  // FromPatterns keeps the first of repeated itemsets too.
  StatusOr<PatternPool> copied =
      PatternPool::FromPatterns(db.num_transactions(), {first, second});
  ASSERT_TRUE(copied.ok());
  ASSERT_EQ(copied->size(), 1);
  EXPECT_EQ(copied->ToPattern(0), first);
}

// Add and AppendRow are exclusive ways to build a pool: Add's dedup
// index never sees rows appended in place, so mixing them aborts.
TEST(PatternPoolDeathTest, AddAndAppendRowDoNotMix) {
  TransactionDatabase db = MakePaperFigure3();
  const Pattern pattern = MakePattern(db, Itemset({0}));
  PatternPool appended(db.num_transactions(), 2);
  appended.AppendRow(pattern.items.items());
  EXPECT_DEATH(appended.Add(pattern), "Add on a pool built with AppendRow");

  PatternPool added(db.num_transactions(), 2);
  added.Add(pattern);
  EXPECT_DEATH(added.AppendRow(Itemset({1}).items()),
               "AppendRow on a pool built with Add");
  EXPECT_DEATH(added.RemoveRowsBelowSupport(1),
               "compacting a pool built with Add");
}

// The engine gives the same answer from a pool as from the patterns
// it was copied from.
TEST(PatternPoolTest, EngineRunsAPoolLikeItsPatterns) {
  TransactionDatabase db = ThreeWordDatabase();
  const std::vector<Pattern> patterns = SizeLexPatterns(db);
  StatusOr<PatternPool> pool =
      PatternPool::FromPatterns(db.num_transactions(), patterns);
  ASSERT_TRUE(pool.ok());

  PatternFusionOptions options;
  options.min_support_count = 20;
  options.k = 4;
  options.num_threads = 1;
  StatusOr<PatternFusionResult> from_patterns =
      RunPatternFusion(db, patterns, options);
  FusionEngine engine(db, options);
  StatusOr<PatternFusionResult> from_pool = engine.Run(std::move(*pool));
  ASSERT_TRUE(from_patterns.ok() && from_pool.ok());
  ASSERT_EQ(from_pool->patterns.size(), from_patterns->patterns.size());
  for (size_t i = 0; i < from_patterns->patterns.size(); ++i) {
    EXPECT_EQ(from_pool->patterns[i], from_patterns->patterns[i]);
  }
}

TEST(PatternPoolTest, InPlaceCompactionKeepsSizeLexOrder) {
  TransactionDatabase db = ThreeWordDatabase();
  const std::vector<Pattern> patterns = SizeLexPatterns(db);
  PatternPool pool(db.num_transactions(),
                   static_cast<int64_t>(patterns.size()));
  for (const Pattern& pattern : patterns) {
    const int64_t row = pool.AppendRow(pattern.items.items());
    for (int64_t w = 0; w < pool.words_per_row(); ++w) {
      EXPECT_EQ(pool.row(row)[w], 0u) << "appended rows start zeroed";
    }
    std::copy(pattern.support_set.words(),
              pattern.support_set.words() + pool.words_per_row(),
              pool.mutable_row(row));
    pool.set_support(row, pattern.support);
  }
  // A threshold that drops rows from the middle of every size class.
  const int64_t min_support = patterns[patterns.size() / 2].support;
  std::vector<Pattern> expected;
  for (const Pattern& pattern : patterns) {
    if (pattern.support >= min_support) expected.push_back(pattern);
  }
  ASSERT_LT(expected.size(), patterns.size());
  ASSERT_GT(expected.size(), 1u);

  pool.RemoveRowsBelowSupport(min_support);
  ASSERT_EQ(pool.size(), static_cast<int64_t>(expected.size()));
  for (int64_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool.ToPattern(i), expected[static_cast<size_t>(i)]) << i;
    if (i > 0) {
      const Pattern previous = pool.ToPattern(i - 1);
      const Pattern current = pool.ToPattern(i);
      EXPECT_TRUE(previous.size() < current.size() ||
                  (previous.size() == current.size() &&
                   previous.items < current.items));
    }
  }
}

// --- FuseOnce -------------------------------------------------------------

TEST(FuseOnceTest, SeedAloneWhenBallIsSingleton) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0}))};
  FusionOutcome outcome = FuseOnce(pool, {0}, 0, 100, 0.5);
  EXPECT_EQ(outcome.fused.items, Itemset({0}));
  EXPECT_EQ(outcome.merged_count, 1);
}

TEST(FuseOnceTest, MergesCompatibleCorePatterns) {
  TransactionDatabase db = MakePaperFigure3();
  // ab (200) and ce (100) are both cores of abcef; fusing them yields
  // abce with support 100 ≥ τ·200.
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0, 1})),
                               MakePattern(db, Itemset({2, 3}))};
  FusionOutcome outcome = FuseOnce(pool, {0, 1}, 0, 100, 0.5);
  EXPECT_EQ(outcome.fused.items, Itemset({0, 1, 2, 3}));
  EXPECT_EQ(outcome.fused.support, 100);
  EXPECT_EQ(outcome.merged_count, 2);
}

TEST(FuseOnceTest, RejectsMergeBreakingFrequency) {
  LabeledDatabase labeled = MakeDiagPlus(10, 5);
  // Diag item {0} and colossal item {10} have disjoint support sets: the
  // merge would have support 0 < min_support.
  std::vector<Pattern> pool = {MakePattern(labeled.db, Itemset({0})),
                               MakePattern(labeled.db, Itemset({10}))};
  FusionOutcome outcome = FuseOnce(pool, {0, 1}, 0, 5, 0.5);
  EXPECT_EQ(outcome.fused.items, Itemset({0}));
  EXPECT_EQ(outcome.merged_count, 1);
}

TEST(FuseOnceTest, RejectsMergeBreakingTauCoreInvariant) {
  TransactionDatabase db = MakePaperFigure3();
  // Seed (ce): support 100. Candidate (a): support 300. Merged support
  // would be 100 < τ·300 = 150 at τ = 0.5: the member (a) would not be a
  // τ-core of the result, so the merge must be refused.
  std::vector<Pattern> pool = {MakePattern(db, Itemset({2, 3})),
                               MakePattern(db, Itemset({0}))};
  FusionOutcome outcome = FuseOnce(pool, {0, 1}, 0, 50, 0.5);
  EXPECT_EQ(outcome.fused.items, Itemset({2, 3}));
  // With τ = 0.3 the same merge passes (100 ≥ 0.3·300).
  outcome = FuseOnce(pool, {0, 1}, 0, 50, 0.3);
  EXPECT_EQ(outcome.fused.items, Itemset({0, 2, 3}));
}

TEST(FuseOnceTest, ResultSatisfiesTauCoreInvariantForAllMerged) {
  // Property: every merged member must be a τ-core of the fused result.
  LabeledDatabase labeled = MakeDiagPlus(12, 6);
  std::vector<Pattern> pool;
  for (ItemId item = 0; item < labeled.db.num_items(); ++item) {
    Pattern p = MakePattern(labeled.db, Itemset::Single(item));
    if (p.support >= 6) pool.push_back(std::move(p));
  }
  std::vector<int64_t> order;
  for (size_t i = 0; i < pool.size(); ++i) {
    order.push_back(static_cast<int64_t>(i));
  }
  const double tau = 0.5;
  FusionOutcome outcome = FuseOnce(pool, order, 0, 6, tau);
  for (int64_t index : order) {
    const Pattern& member = pool[static_cast<size_t>(index)];
    if (member.items.IsSubsetOf(outcome.fused.items)) {
      EXPECT_GE(static_cast<double>(outcome.fused.support) + 1e-9,
                tau * static_cast<double>(member.support))
          << member.items.ToString();
    }
  }
}

// The itemset-scan FuseOnce that the bitmap version replaced, kept as
// the reference for the differential test below.
FusionOutcome ReferenceFuseOnce(const std::vector<Pattern>& pool,
                                const std::vector<int64_t>& ball_order,
                                int64_t seed_index, int64_t min_support_count,
                                double tau, int max_merges, int max_items) {
  const Pattern& seed = pool[static_cast<size_t>(seed_index)];
  FusionOutcome outcome;
  outcome.fused.items = seed.items;
  outcome.fused.support_set = seed.support_set;
  outcome.fused.support = seed.support;
  outcome.merged_count = 1;
  int64_t max_merged_support = seed.support;
  for (int64_t index : ball_order) {
    if (max_merges != 0 && outcome.merged_count >= max_merges) break;
    if (index == seed_index) continue;
    const Pattern& member = pool[static_cast<size_t>(index)];
    if (member.items.IsSubsetOf(outcome.fused.items)) continue;
    if (max_items != 0) {
      const int64_t union_items =
          static_cast<int64_t>(outcome.fused.items.size()) +
          static_cast<int64_t>(member.items.size()) -
          IntersectionSize(outcome.fused.items, member.items);
      if (union_items > max_items) continue;
    }
    const int64_t merged_support =
        Bitvector::AndCount(outcome.fused.support_set, member.support_set);
    if (merged_support < min_support_count) continue;
    const double needed =
        tau * static_cast<double>(
                  std::max(max_merged_support, member.support)) -
        1e-12;
    if (static_cast<double>(merged_support) < needed) continue;
    outcome.fused.items = Union(outcome.fused.items, member.items);
    outcome.fused.support_set.AndWith(member.support_set);
    outcome.fused.support = merged_support;
    max_merged_support = std::max(max_merged_support, member.support);
    ++outcome.merged_count;
  }
  return outcome;
}

Itemset RenameItem(const Itemset& items, ItemId from, ItemId to) {
  std::vector<ItemId> renamed = items.items();
  std::replace(renamed.begin(), renamed.end(), from, to);
  return Itemset::FromUnsorted(std::move(renamed));
}

// (seed, transactions): 30 transactions is one support-set word, 128
// and 129 sit on either side of the pool FuseOnce's filter-order rule
// (2 and 3 words), 4,395 is the trace stand-in's 69.
class FuseOnceDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int64_t>> {};

TEST_P(FuseOnceDifferentialTest, MatchesItemsetScanReference) {
  // 90 items, so fused itemsets span several bitmap words; the most
  // frequent item is renamed to a sparse high id, so merging it grows
  // the bitmap. Wider databases are denser, so that merges still pass
  // the frequency test at the same relative threshold.
  const auto [seed, num_transactions] = GetParam();
  RandomDatabaseOptions db_options;
  db_options.num_transactions = num_transactions;
  db_options.num_items = 90;
  db_options.density = num_transactions == 30 ? 0.6 : 0.85;
  db_options.seed = seed;
  TransactionDatabase db = MakeRandomDatabase(db_options);
  const int64_t min_support = num_transactions * 8 / 30;
  ItemId most_frequent = 0;
  for (ItemId i = 1; i < db.num_items(); ++i) {
    if (db.Support(Itemset::Single(i)) >
        db.Support(Itemset::Single(most_frequent))) {
      most_frequent = i;
    }
  }
  constexpr ItemId kSparseId = 5000;

  std::vector<Pattern> pool;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    for (ItemId j = i; j < db.num_items(); ++j) {
      Pattern pattern = MakePattern(db, Itemset::FromUnsorted({i, j}));
      if (pattern.support < min_support) continue;
      pattern.items = RenameItem(pattern.items, most_frequent, kSparseId);
      pool.push_back(std::move(pattern));
    }
  }
  ASSERT_GT(pool.size(), 100u);
  StatusOr<PatternPool> columnar =
      PatternPool::FromPatterns(num_transactions, pool);
  ASSERT_TRUE(columnar.ok());
  ASSERT_EQ(columnar->size(), static_cast<int64_t>(pool.size()));

  Rng rng(seed);
  std::vector<int64_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int64_t>(i);
  }
  bool grew_past_64 = false;
  bool absorbed_sparse_id = false;
  bool merged_beyond_a_pair = false;
  for (int trial = 0; trial < 12; ++trial) {
    rng.Shuffle(order);
    const int64_t seed_index =
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1);
    for (int max_merges : {0, 2, 4, 8, 16}) {
      for (int max_items : {0, 3, 6}) {
        const FusionOutcome expected = ReferenceFuseOnce(
            pool, order, seed_index, min_support, 0.5, max_merges, max_items);
        const FusionOutcome actual = FuseOnce(pool, order, seed_index,
                                              min_support, 0.5, max_merges,
                                              nullptr, max_items);
        const FusionOutcome scanned =
            FuseOnce(*columnar, order, seed_index, min_support, 0.5,
                     max_merges, max_items);
        for (const FusionOutcome* outcome : {&actual, &scanned}) {
          ASSERT_EQ(outcome->fused.items, expected.fused.items)
              << (outcome == &actual ? "vector" : "pool") << " trial "
              << trial << " max_merges " << max_merges << " max_items "
              << max_items;
          EXPECT_EQ(outcome->fused.support, expected.fused.support);
          EXPECT_EQ(outcome->fused.support_set, expected.fused.support_set);
          EXPECT_EQ(outcome->merged_count, expected.merged_count);
        }
        const std::vector<ItemId>& items = actual.fused.items.items();
        if (!items.empty() && items.back() >= 64) grew_past_64 = true;
        if (actual.fused.items.Contains(kSparseId)) absorbed_sparse_id = true;
        if (actual.merged_count > 2) merged_beyond_a_pair = true;
      }
    }
  }
  EXPECT_TRUE(grew_past_64);
  EXPECT_TRUE(merged_beyond_a_pair);
  // The sparse-id growth case is tuned to the one-word database; the
  // wider ones reach it only for some seeds.
  if (num_transactions == 30) {
    EXPECT_TRUE(absorbed_sparse_id);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuseOnceDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(30, 128, 129, 4395)));

// --- RunPatternFusion ------------------------------------------------------

TEST(PatternFusionTest, ValidatesOptions) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0}))};
  PatternFusionOptions options;
  options.min_support_count = 0;
  EXPECT_FALSE(RunPatternFusion(db, pool, options).ok());
  options.min_support_count = 100;
  options.tau = 0.0;
  EXPECT_FALSE(RunPatternFusion(db, pool, options).ok());
  options.tau = 1.5;
  EXPECT_FALSE(RunPatternFusion(db, pool, options).ok());
  options.tau = 0.5;
  options.k = 0;
  EXPECT_FALSE(RunPatternFusion(db, pool, options).ok());
  options.k = 10;
  EXPECT_FALSE(RunPatternFusion(db, {}, options).ok());
}

TEST(PatternFusionTest, RejectsInfrequentPoolPatterns) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0, 1, 2, 3, 4}))};
  PatternFusionOptions options;
  options.min_support_count = 200;  // abcef has support 100
  StatusOr<PatternFusionResult> result = RunPatternFusion(db, pool, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PatternFusionTest, RejectsPoolPatternsWithInconsistentSupport) {
  TransactionDatabase db = MakePaperFigure3();
  PatternFusionOptions options;
  options.min_support_count = 100;

  // A cached support that disagrees with the support set (ab: 200 rows).
  Pattern wrong_support = MakePattern(db, Itemset({0, 1}));
  wrong_support.support = 250;
  StatusOr<PatternFusionResult> result = RunPatternFusion(
      db, {MakePattern(db, Itemset({0})), wrong_support}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // A support set that is not one bit per transaction.
  Pattern wrong_width;
  wrong_width.items = Itemset({0});
  wrong_width.support_set = Bitvector(db.num_transactions() + 1);
  for (int64_t row = 0; row < 150; ++row) wrong_width.support_set.Set(row);
  wrong_width.support = 150;
  result = RunPatternFusion(db, {wrong_width}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PatternFusionTest, SmallPoolReturnsImmediately) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0})),
                               MakePattern(db, Itemset({1}))};
  PatternFusionOptions options;
  options.min_support_count = 100;
  options.k = 10;
  StatusOr<PatternFusionResult> result = RunPatternFusion(db, pool, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_TRUE(result->iterations.empty());
  EXPECT_EQ(result->patterns.size(), 2u);
}

TEST(PatternFusionTest, RecoversAbcefFromFigure3) {
  TransactionDatabase db = MakePaperFigure3();
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(db, 100, 2);
  ASSERT_TRUE(pool.ok());
  // 5 frequent items + 10 frequent pairs.
  EXPECT_EQ(pool->size(), 15u);

  PatternFusionOptions options;
  options.min_support_count = 100;
  options.tau = 0.5;
  options.k = 5;
  options.seed = 11;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  bool found_abcef = false;
  for (const Pattern& pattern : result->patterns) {
    if (pattern.items == Itemset({0, 1, 2, 3, 4})) found_abcef = true;
    // Everything returned must be frequent.
    EXPECT_GE(pattern.support, 100);
    EXPECT_EQ(pattern.support, db.Support(pattern.items));
  }
  EXPECT_TRUE(found_abcef);
}

TEST(PatternFusionTest, FindsColossalPatternInDiagPlus) {
  LabeledDatabase labeled = MakeDiagPlus(40, 20);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  ASSERT_TRUE(pool.ok());
  // 40 diag items + C(40,2) diag pairs + 39 colossal items + C(39,2)
  // colossal pairs = 40 + 780 + 39 + 741 = 1600.
  EXPECT_EQ(pool->size(), 1600u);

  PatternFusionOptions options;
  options.min_support_count = labeled.min_support_count;
  options.tau = 0.5;
  options.k = 100;
  options.seed = 7;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(labeled.db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  bool found_colossal = false;
  for (const Pattern& pattern : result->patterns) {
    if (pattern.items == labeled.planted[0]) found_colossal = true;
  }
  EXPECT_TRUE(found_colossal);
  // The largest pattern in the result must be the size-39 colossal one —
  // mid-size diag fusions stop at size 20.
  EXPECT_EQ(result->patterns[0].size(), 39);
}

TEST(PatternFusionTest, DiagFusionsReachExactlySupportBoundary) {
  // On pure Diag_n (no colossal block), fused patterns grow until their
  // support hits the threshold: size n/2 patterns with support n/2.
  TransactionDatabase db = MakeDiag(20);
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(db, 10, 2);
  ASSERT_TRUE(pool.ok());
  PatternFusionOptions options;
  options.min_support_count = 10;
  options.tau = 0.5;
  options.k = 20;
  options.seed = 13;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  for (const Pattern& pattern : result->patterns) {
    EXPECT_GE(pattern.support, 10);
    EXPECT_LE(pattern.size(), 10);
  }
  // The fusion should push most survivors to the frontier size n/2.
  EXPECT_EQ(result->patterns[0].size(), 10);
}

TEST(PatternFusionTest, Lemma5MinSizeNeverDecreases) {
  LabeledDatabase labeled = MakeDiagPlus(20, 10);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, labeled.min_support_count, 1);
  ASSERT_TRUE(pool.ok());
  PatternFusionOptions options;
  options.min_support_count = labeled.min_support_count;
  options.k = 5;  // small K forces several iterations
  options.seed = 23;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(labeled.db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  int previous = 1;
  for (const FusionIterationStats& stats : result->iterations) {
    EXPECT_GE(stats.min_pattern_size, previous);
    previous = stats.min_pattern_size;
  }
}

TEST(PatternFusionTest, DeterministicForFixedSeed) {
  LabeledDatabase labeled = MakeDiagPlus(20, 10);
  StatusOr<std::vector<Pattern>> pool_a =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  StatusOr<std::vector<Pattern>> pool_b =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  ASSERT_TRUE(pool_a.ok());
  PatternFusionOptions options;
  options.min_support_count = labeled.min_support_count;
  options.k = 30;
  options.seed = 99;
  StatusOr<PatternFusionResult> a =
      RunPatternFusion(labeled.db, *std::move(pool_a), options);
  StatusOr<PatternFusionResult> b =
      RunPatternFusion(labeled.db, *std::move(pool_b), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->patterns.size(), b->patterns.size());
  for (size_t i = 0; i < a->patterns.size(); ++i) {
    EXPECT_EQ(a->patterns[i].items, b->patterns[i].items);
  }
  // A different seed should explore differently (not guaranteed in
  // theory, overwhelmingly likely here).
  options.seed = 100;
  StatusOr<std::vector<Pattern>> pool_c =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  StatusOr<PatternFusionResult> c =
      RunPatternFusion(labeled.db, *std::move(pool_c), options);
  ASSERT_TRUE(c.ok());
  bool any_difference = a->patterns.size() != c->patterns.size();
  if (!any_difference) {
    for (size_t i = 0; i < a->patterns.size(); ++i) {
      if (!(a->patterns[i].items == c->patterns[i].items)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(PatternFusionTest, AllReturnedPatternsAreFrequentAndConsistent) {
  LabeledDatabase labeled = MakeProgramTraceLike(1);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  ASSERT_TRUE(pool.ok());
  PatternFusionOptions options;
  options.min_support_count = labeled.min_support_count;
  options.tau = 0.25;
  options.k = 40;
  options.seed = 3;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(labeled.db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  for (const Pattern& pattern : result->patterns) {
    EXPECT_GE(pattern.support, labeled.min_support_count);
    EXPECT_EQ(pattern.support, labeled.db.Support(pattern.items));
    EXPECT_EQ(pattern.support_set.Count(), pattern.support);
  }
}

TEST(BuildInitialPoolTest, PoolIsInSizeLexOrderWithoutASort) {
  // BuildInitialPool keeps Apriori's emission order, and fusion (and the
  // sharded miner's phase 3) rely on it being strictly (size, lex).
  RandomDatabaseOptions random_options;
  random_options.num_transactions = 60;
  random_options.num_items = 24;
  random_options.density = 0.35;
  random_options.seed = 17;
  const TransactionDatabase random_db = MakeRandomDatabase(random_options);
  const LabeledDatabase labeled = MakeDiagPlus(16, 8);
  MiningConstraints excluded;
  excluded.exclude = {0, 3, 5};
  auto before = [](const Pattern& a, const Pattern& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a.items < b.items;
  };
  for (const auto& [db, min_support] :
       {std::make_pair(&labeled.db, labeled.min_support_count),
        std::make_pair(&random_db, int64_t{6})}) {
    for (const MiningConstraints& constraints :
         {MiningConstraints(), excluded}) {
      for (int threads : {1, 4}) {
        StatusOr<std::vector<Pattern>> pool =
            BuildInitialPool(*db, min_support, 3, PoolMiner::kApriori,
                             threads, nullptr, constraints);
        ASSERT_TRUE(pool.ok()) << pool.status().ToString();
        ASSERT_GT(pool->size(), 3u);
        EXPECT_GT(pool->back().size(), 1);
        for (size_t i = 1; i < pool->size(); ++i) {
          ASSERT_TRUE(before((*pool)[i - 1], (*pool)[i]))
              << "threads=" << threads << " at " << i;
        }
      }
    }
  }
}

TEST(BuildInitialPoolTest, FailsWhenNothingIsFrequent) {
  TransactionDatabase db = MakeDiag(6);
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(db, 6, 2);
  EXPECT_FALSE(pool.ok());
  EXPECT_EQ(pool.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BuildInitialPoolTest, RejectsBadBound) {
  TransactionDatabase db = MakeDiag(6);
  EXPECT_FALSE(BuildInitialPool(db, 3, 0).ok());
}

}  // namespace
}  // namespace colossal
