#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/transaction_database.h"
#include "mining/apriori.h"
#include "mining/brute_force.h"
#include "mining/closed_miner.h"
#include "mining/eclat.h"
#include "mining/fpgrowth.h"
#include "mining/maximal_miner.h"
#include "mining/miner.h"
#include "mining/topk_miner.h"

namespace colossal {
namespace {

TransactionDatabase TinyDb() {
  StatusOr<TransactionDatabase> db = TransactionDatabase::FromTransactions({
      {0, 1, 2},
      {0, 1},
      {0, 2},
      {1, 2},
      {0, 1, 2, 3},
  });
  EXPECT_TRUE(db.ok());
  return *std::move(db);
}

std::vector<FrequentItemset> Sorted(std::vector<FrequentItemset> patterns) {
  SortPatterns(&patterns);
  return patterns;
}

TEST(MinerOptionsTest, ValidationCatchesBadInputs) {
  TransactionDatabase db = TinyDb();
  MinerOptions options;
  options.min_support_count = 0;
  EXPECT_FALSE(MineApriori(db, options).ok());
  options.min_support_count = 99;
  EXPECT_FALSE(MineEclat(db, options).ok());
  options.min_support_count = 1;
  options.max_pattern_size = -1;
  EXPECT_FALSE(MineFpGrowth(db, options).ok());
  options.max_pattern_size = 0;
  options.max_nodes = -5;
  EXPECT_FALSE(MineClosed(db, options).ok());
}

TEST(AprioriTest, FindsKnownPatternsInTinyDb) {
  TransactionDatabase db = TinyDb();
  MinerOptions options;
  options.min_support_count = 3;
  StatusOr<MiningResult> result = MineApriori(db, options);
  ASSERT_TRUE(result.ok());
  // Frequent at support 3: {0}(4) {1}(4) {2}(4) {0,1}(3) {0,2}(3) {1,2}(3).
  EXPECT_EQ(result->patterns.size(), 6u);
  EXPECT_TRUE(ContainsPattern(*result, Itemset({0, 1})));
  EXPECT_FALSE(ContainsPattern(*result, Itemset({0, 1, 2})));
  for (const FrequentItemset& pattern : result->patterns) {
    EXPECT_EQ(pattern.support, db.Support(pattern.items));
  }
}

TEST(AprioriTest, MaxSizeBoundsInitialPool) {
  TransactionDatabase db = MakePaperFigure3();
  MinerOptions options;
  options.min_support_count = 100;
  options.max_pattern_size = 2;
  StatusOr<MiningResult> result = MineApriori(db, options);
  ASSERT_TRUE(result.ok());
  for (const FrequentItemset& pattern : result->patterns) {
    EXPECT_LE(pattern.items.size(), 2);
  }
  // 5 frequent items + 10 frequent pairs (every pair occurs in abcef).
  EXPECT_EQ(result->patterns.size(), 15u);
}

TEST(AprioriTest, BudgetStopsEarly) {
  TransactionDatabase db = MakeDiag(12);
  MinerOptions options;
  options.min_support_count = 6;
  options.max_nodes = 10;
  StatusOr<MiningResult> result = MineApriori(db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.budget_exceeded);
}

// The three complete miners and the brute-force oracle must agree
// exactly on randomized databases.
struct CrossCheckCase {
  int64_t num_transactions;
  ItemId num_items;
  double density;
  int64_t min_support;
  uint64_t seed;
};

class MinerCrossCheck : public ::testing::TestWithParam<CrossCheckCase> {};

TEST_P(MinerCrossCheck, AllMinersAgreeWithOracle) {
  const CrossCheckCase& config = GetParam();
  RandomDatabaseOptions db_options;
  db_options.num_transactions = config.num_transactions;
  db_options.num_items = config.num_items;
  db_options.density = config.density;
  db_options.seed = config.seed;
  TransactionDatabase db = MakeRandomDatabase(db_options);

  MinerOptions options;
  options.min_support_count = config.min_support;

  StatusOr<MiningResult> oracle = BruteForceFrequent(db, options);
  StatusOr<MiningResult> apriori = MineApriori(db, options);
  StatusOr<MiningResult> eclat = MineEclat(db, options);
  StatusOr<MiningResult> fpgrowth = MineFpGrowth(db, options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(apriori.ok());
  ASSERT_TRUE(eclat.ok());
  ASSERT_TRUE(fpgrowth.ok());

  EXPECT_EQ(Sorted(apriori->patterns), Sorted(oracle->patterns));
  EXPECT_EQ(Sorted(eclat->patterns), Sorted(oracle->patterns));
  EXPECT_EQ(Sorted(fpgrowth->patterns), Sorted(oracle->patterns));
}

TEST_P(MinerCrossCheck, ClosedMinerMatchesOracle) {
  const CrossCheckCase& config = GetParam();
  RandomDatabaseOptions db_options;
  db_options.num_transactions = config.num_transactions;
  db_options.num_items = config.num_items;
  db_options.density = config.density;
  db_options.seed = config.seed;
  TransactionDatabase db = MakeRandomDatabase(db_options);

  MinerOptions options;
  options.min_support_count = config.min_support;

  StatusOr<MiningResult> oracle = BruteForceClosed(db, options);
  StatusOr<MiningResult> closed = MineClosed(db, options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(Sorted(closed->patterns), Sorted(oracle->patterns));
}

TEST_P(MinerCrossCheck, MaximalMinerMatchesOracle) {
  const CrossCheckCase& config = GetParam();
  RandomDatabaseOptions db_options;
  db_options.num_transactions = config.num_transactions;
  db_options.num_items = config.num_items;
  db_options.density = config.density;
  db_options.seed = config.seed;
  TransactionDatabase db = MakeRandomDatabase(db_options);

  MinerOptions options;
  options.min_support_count = config.min_support;

  StatusOr<MiningResult> oracle = BruteForceMaximal(db, options);
  StatusOr<MiningResult> maximal = MineMaximal(db, options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(maximal.ok());
  EXPECT_EQ(Sorted(maximal->patterns), Sorted(oracle->patterns));
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, MinerCrossCheck,
    ::testing::Values(CrossCheckCase{30, 8, 0.3, 3, 1},
                      CrossCheckCase{30, 8, 0.5, 5, 2},
                      CrossCheckCase{50, 10, 0.4, 8, 3},
                      CrossCheckCase{50, 10, 0.6, 10, 4},
                      CrossCheckCase{20, 12, 0.5, 4, 5},
                      CrossCheckCase{64, 9, 0.7, 20, 6},
                      CrossCheckCase{40, 11, 0.2, 2, 7},
                      CrossCheckCase{25, 10, 0.8, 12, 8}));

TEST(ClosedMinerTest, Figure3ClosedPatternsAreExactlyTheNineClosures) {
  TransactionDatabase db = MakePaperFigure3();
  MinerOptions options;
  options.min_support_count = 100;
  StatusOr<MiningResult> result = MineClosed(db, options);
  ASSERT_TRUE(result.ok());
  // Working Figure 3 by hand: the closure of an itemset is the
  // intersection of the transactions containing it. That yields exactly
  // seven closed frequent patterns:
  //   (a) (b)              support 300
  //   (cf)                 support 300 — c and f each close to (cf)
  //   (abe) (bcf) (acf)    support 200
  //   (abcef)              support 100
  // Notably (e) and (ab) close to (abe), so they must be absent.
  const std::vector<FrequentItemset> expected = {
      {Itemset({0}), 300},          {Itemset({1}), 300},
      {Itemset({2, 4}), 300},       {Itemset({0, 1, 3}), 200},
      {Itemset({1, 2, 4}), 200},    {Itemset({0, 2, 4}), 200},
      {Itemset({0, 1, 2, 3, 4}), 100},
  };
  EXPECT_EQ(Sorted(result->patterns), Sorted(expected));
  EXPECT_FALSE(ContainsPattern(*result, Itemset({3})));     // (e)
  EXPECT_FALSE(ContainsPattern(*result, Itemset({0, 1})));  // (ab)
  for (const FrequentItemset& pattern : result->patterns) {
    EXPECT_EQ(pattern.support, db.Support(pattern.items));
    EXPECT_TRUE(IsClosedItemset(db, pattern.items));
  }
}

TEST(ClosedMinerTest, SizeBoundPrunesSupersets) {
  TransactionDatabase db = MakePaperFigure3();
  MinerOptions options;
  options.min_support_count = 100;
  options.max_pattern_size = 2;
  StatusOr<MiningResult> result = MineClosed(db, options);
  ASSERT_TRUE(result.ok());
  for (const FrequentItemset& pattern : result->patterns) {
    EXPECT_LE(pattern.items.size(), 2);
    EXPECT_TRUE(IsClosedItemset(db, pattern.items));
  }
}

TEST(ClosedMinerTest, EmitsRootClosureWhenItemsAreUniversal) {
  StatusOr<TransactionDatabase> db = TransactionDatabase::FromTransactions({
      {0, 1, 2},
      {0, 1, 3},
      {0, 1},
  });
  ASSERT_TRUE(db.ok());
  MinerOptions options;
  options.min_support_count = 2;
  StatusOr<MiningResult> result = MineClosed(*db, options);
  ASSERT_TRUE(result.ok());
  // {0,1} is in every transaction: it is the root closure.
  EXPECT_TRUE(ContainsPattern(*result, Itemset({0, 1})));
  EXPECT_FALSE(ContainsPattern(*result, Itemset({0})));
}

TEST(MaximalMinerTest, DiagMaximalAreExactlyHalfSizeSets) {
  const int n = 8;
  TransactionDatabase db = MakeDiag(n);
  MinerOptions options;
  options.min_support_count = n / 2;
  StatusOr<MiningResult> result = MineMaximal(db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.budget_exceeded);
  // C(8, 4) = 70 maximal patterns, each of size 4 and support 4.
  EXPECT_EQ(result->patterns.size(), 70u);
  for (const FrequentItemset& pattern : result->patterns) {
    EXPECT_EQ(pattern.items.size(), 4);
    EXPECT_EQ(pattern.support, 4);
  }
}

TEST(MaximalMinerTest, RejectsSizeBound) {
  TransactionDatabase db = TinyDb();
  MinerOptions options;
  options.min_support_count = 2;
  options.max_pattern_size = 3;
  EXPECT_FALSE(MineMaximal(db, options).ok());
}

TEST(MaximalMinerTest, BudgetTripsOnDiagExplosion) {
  TransactionDatabase db = MakeDiag(24);
  MinerOptions options;
  options.min_support_count = 12;
  options.max_nodes = 5000;
  StatusOr<MiningResult> result = MineMaximal(db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.budget_exceeded);
}

TEST(MaximalMinerTest, LookaheadHandlesIdenticalRows) {
  StatusOr<TransactionDatabase> db = TransactionDatabase::FromTransactions({
      {0, 1, 2, 3},
      {0, 1, 2, 3},
      {0, 1, 2, 3},
  });
  ASSERT_TRUE(db.ok());
  MinerOptions options;
  options.min_support_count = 2;
  StatusOr<MiningResult> result = MineMaximal(*db, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->patterns.size(), 1u);
  EXPECT_EQ(result->patterns[0].items, Itemset({0, 1, 2, 3}));
  EXPECT_EQ(result->patterns[0].support, 3);
}

TEST(TopKTest, ReturnsStrongestClosedPatterns) {
  TransactionDatabase db = MakePaperFigure3();
  TopKOptions options;
  options.k = 3;
  options.min_pattern_size = 1;
  StatusOr<MiningResult> result = MineTopKClosed(db, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->patterns.size(), 3u);
  // Strongest closed patterns in Figure 3: (a)=300, (b)=300, (c)=300,
  // (f)=300 tie at 300 — any 3 of them qualify; supports must be 300.
  for (const FrequentItemset& pattern : result->patterns) {
    EXPECT_EQ(pattern.support, 300);
  }
}

TEST(TopKTest, MinSizeConstraintSkipsSmallPatterns) {
  TransactionDatabase db = MakePaperFigure3();
  TopKOptions options;
  options.k = 2;
  options.min_pattern_size = 3;
  StatusOr<MiningResult> result = MineTopKClosed(db, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->patterns.size(), 2u);
  for (const FrequentItemset& pattern : result->patterns) {
    EXPECT_GE(pattern.items.size(), 3);
  }
  // The strongest size-≥3 closed patterns are (abe) and (bcf)/(acf), all
  // support 200.
  EXPECT_EQ(result->patterns[0].support, 200);
}

TEST(TopKTest, AgreesWithClosedMinerOnRandomData) {
  RandomDatabaseOptions db_options;
  db_options.num_transactions = 60;
  db_options.num_items = 12;
  db_options.density = 0.4;
  db_options.seed = 17;
  TransactionDatabase db = MakeRandomDatabase(db_options);

  // Reference: full closed set, take the k best of size ≥ 2.
  MinerOptions closed_options;
  closed_options.min_support_count = 1;
  StatusOr<MiningResult> closed = MineClosed(db, closed_options);
  ASSERT_TRUE(closed.ok());
  std::vector<FrequentItemset> eligible;
  for (const FrequentItemset& pattern : closed->patterns) {
    if (pattern.items.size() >= 2) eligible.push_back(pattern);
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.support > b.support;
            });

  TopKOptions options;
  options.k = 5;
  options.min_pattern_size = 2;
  StatusOr<MiningResult> topk = MineTopKClosed(db, options);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->patterns.size(), 5u);
  for (size_t i = 0; i < topk->patterns.size(); ++i) {
    EXPECT_EQ(topk->patterns[i].support, eligible[i].support) << i;
  }
}

TEST(TopKTest, ValidatesOptions) {
  TransactionDatabase db = TinyDb();
  TopKOptions options;
  options.k = 0;
  EXPECT_FALSE(MineTopKClosed(db, options).ok());
  options.k = 5;
  options.min_pattern_size = 0;
  EXPECT_FALSE(MineTopKClosed(db, options).ok());
}

TEST(BruteForceTest, RefusesLargeDomains) {
  RandomDatabaseOptions db_options;
  db_options.num_items = 30;
  TransactionDatabase db = MakeRandomDatabase(db_options);
  MinerOptions options;
  options.min_support_count = 5;
  EXPECT_FALSE(BruteForceFrequent(db, options).ok());
}

TEST(EclatTest, MatchesAprioriOnFigure3WithSizeBound) {
  TransactionDatabase db = MakePaperFigure3();
  MinerOptions options;
  options.min_support_count = 100;
  options.max_pattern_size = 3;
  StatusOr<MiningResult> eclat = MineEclat(db, options);
  StatusOr<MiningResult> apriori = MineApriori(db, options);
  ASSERT_TRUE(eclat.ok());
  ASSERT_TRUE(apriori.ok());
  EXPECT_EQ(Sorted(eclat->patterns), Sorted(apriori->patterns));
}

TEST(EclatTest, SizeBoundCountsNoCandidatePastIt) {
  // On Diag(12) at support 1 every itemset of up to 11 items is
  // frequent, so a bound of k expands exactly sum_{i<=k} C(12, i) nodes
  // and emits as many patterns. Eclat must not count a level beyond k.
  const TransactionDatabase db = MakeDiag(12);
  int64_t exact_nodes = 0;
  int64_t choose = 1;
  for (int k = 1; k <= 3; ++k) {
    choose = choose * (12 - k + 1) / k;
    exact_nodes += choose;
    MinerOptions options;
    options.min_support_count = 1;
    options.max_pattern_size = k;
    for (int threads : {1, 4}) {
      options.num_threads = threads;
      StatusOr<MiningResult> apriori = MineApriori(db, options);
      StatusOr<MiningResult> eclat = MineEclat(db, options);
      ASSERT_TRUE(apriori.ok());
      ASSERT_TRUE(eclat.ok());
      EXPECT_EQ(apriori->stats.nodes_expanded, exact_nodes) << k;
      EXPECT_EQ(eclat->stats.nodes_expanded, exact_nodes)
          << "k=" << k << " threads=" << threads;
    }

    // A budget of exactly the node count is enough; one less is not.
    options.max_nodes = exact_nodes;
    StatusOr<MiningResult> budgeted = MineEclat(db, options);
    ASSERT_TRUE(budgeted.ok());
    EXPECT_FALSE(budgeted->stats.budget_exceeded) << k;
    EXPECT_EQ(static_cast<int64_t>(budgeted->patterns.size()), exact_nodes)
        << k;
    options.max_nodes = exact_nodes - 1;
    StatusOr<MiningResult> short_budget = MineEclat(db, options);
    ASSERT_TRUE(short_budget.ok());
    EXPECT_TRUE(short_budget->stats.budget_exceeded) << k;
  }
}

TEST(FpGrowthTest, HandlesSingleTransaction) {
  StatusOr<TransactionDatabase> db =
      TransactionDatabase::FromTransactions({{2, 5, 9}});
  ASSERT_TRUE(db.ok());
  MinerOptions options;
  options.min_support_count = 1;
  StatusOr<MiningResult> result = MineFpGrowth(*db, options);
  ASSERT_TRUE(result.ok());
  // All 7 non-empty subsets of a 3-item transaction.
  EXPECT_EQ(result->patterns.size(), 7u);
}

}  // namespace
}  // namespace colossal
