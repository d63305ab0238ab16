#include "core/pattern_distance.h"

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/core_pattern.h"
#include "core/pattern.h"
#include "core/pattern_pool.h"
#include "data/generators.h"

namespace colossal {
namespace {

TEST(PatternTest, MakePatternMaterializesSupport) {
  TransactionDatabase db = MakePaperFigure3();
  Pattern pattern = MakePattern(db, Itemset({0, 1}));  // (ab)
  EXPECT_EQ(pattern.support, 200);
  EXPECT_EQ(pattern.support_set.Count(), 200);
  EXPECT_EQ(pattern.size(), 2);
}

TEST(PatternTest, RoundTripThroughFrequentItemsets) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<FrequentItemset> mined = {{Itemset({0}), 300},
                                        {Itemset({2, 4}), 300}};
  std::vector<Pattern> patterns;
  for (const FrequentItemset& entry : mined) {
    patterns.push_back(MakePattern(db, entry.items));
  }
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns[0].support, 300);
  EXPECT_EQ(ToFrequentItemsets(patterns), mined);
}

TEST(PatternDistanceTest, IdenticalSupportSetsAtDistanceZero) {
  TransactionDatabase db = MakePaperFigure3();
  // (ab) and (abe) have the same support set (abe, abcef rows).
  Pattern ab = MakePattern(db, Itemset({0, 1}));
  Pattern abe = MakePattern(db, Itemset({0, 1, 3}));
  EXPECT_DOUBLE_EQ(PatternDistance(ab, abe), 0.0);
}

TEST(PatternDistanceTest, DisjointSupportSetsAtDistanceOne) {
  LabeledDatabase labeled = MakeDiagPlus(10, 5);
  // A diag item and the colossal block never co-occur.
  Pattern diag = MakePattern(labeled.db, Itemset({0}));
  Pattern colossal = MakePattern(labeled.db, Itemset({10}));
  EXPECT_DOUBLE_EQ(PatternDistance(diag, colossal), 1.0);
}

TEST(PatternDistanceTest, MatchesHandComputedJaccard) {
  TransactionDatabase db = MakePaperFigure3();
  // D(a) = {abe, acf, abcef} rows (300), D(b) = {abe, bcf, abcef} (300);
  // |∩| = 200, |∪| = 400 → Dist = 1 − 200/400 = 0.5.
  Pattern a = MakePattern(db, Itemset({0}));
  Pattern b = MakePattern(db, Itemset({1}));
  EXPECT_DOUBLE_EQ(PatternDistance(a, b), 0.5);
}

// Theorem 1: Dist is a metric — symmetry, identity, triangle inequality,
// verified over all frequent-pattern pairs of a randomized database.
class MetricPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricPropertyTest, TriangleInequalityOverRandomPatterns) {
  RandomDatabaseOptions options;
  options.num_transactions = 40;
  options.num_items = 10;
  options.density = 0.45;
  options.seed = GetParam();
  TransactionDatabase db = MakeRandomDatabase(options);

  std::vector<Pattern> patterns;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    for (ItemId j = i; j < db.num_items(); ++j) {
      Pattern p = MakePattern(db, Itemset::FromUnsorted({i, j}));
      if (p.support > 0) patterns.push_back(std::move(p));
    }
  }
  ASSERT_GE(patterns.size(), 3u);
  for (size_t x = 0; x < patterns.size(); x += 3) {
    for (size_t y = 0; y < patterns.size(); y += 3) {
      EXPECT_DOUBLE_EQ(PatternDistance(patterns[x], patterns[y]),
                       PatternDistance(patterns[y], patterns[x]));
      for (size_t z = 0; z < patterns.size(); z += 3) {
        EXPECT_LE(PatternDistance(patterns[x], patterns[z]),
                  PatternDistance(patterns[x], patterns[y]) +
                      PatternDistance(patterns[y], patterns[z]) + 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MetricPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(BallRadiusTest, MatchesFormula) {
  // r(τ) = 1 − 1/(2/τ − 1).
  EXPECT_DOUBLE_EQ(BallRadius(1.0), 0.0);
  EXPECT_DOUBLE_EQ(BallRadius(0.5), 1.0 - 1.0 / 3.0);
  EXPECT_NEAR(BallRadius(0.1), 1.0 - 1.0 / 19.0, 1e-12);
}

// Theorem 2: any two τ-core patterns of α lie within r(τ) of each other.
class Theorem2Test : public ::testing::TestWithParam<double> {};

TEST_P(Theorem2Test, CorePatternsAreWithinBallRadius) {
  const double tau = GetParam();
  TransactionDatabase db = MakePaperFigure3();
  const Itemset alpha({0, 1, 2, 3, 4});  // abcef
  const std::vector<Itemset> cores = EnumerateCorePatterns(db, alpha, tau);
  const double radius = BallRadius(tau);
  for (const Itemset& beta1 : cores) {
    for (const Itemset& beta2 : cores) {
      const Pattern p1 = MakePattern(db, beta1);
      const Pattern p2 = MakePattern(db, beta2);
      EXPECT_LE(PatternDistance(p1, p2), radius + 1e-9)
          << beta1.ToString() << " vs " << beta2.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, Theorem2Test,
                         ::testing::Values(0.25, 0.4, 0.5, 0.75, 1.0));

// Theorem 2 on randomized data: stress the bound where support sets are
// not as structured as Figure 3's.
class Theorem2RandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem2RandomTest, BoundHoldsOnRandomDatabases) {
  RandomDatabaseOptions options;
  options.num_transactions = 60;
  options.num_items = 9;
  options.density = 0.5;
  options.seed = GetParam();
  TransactionDatabase db = MakeRandomDatabase(options);
  const double tau = 0.5;
  const double radius = BallRadius(tau);

  // α = the most frequent 4-itemset found by scanning pairs of pairs.
  Itemset alpha;
  int64_t best_support = 0;
  for (ItemId a = 0; a < db.num_items(); ++a) {
    for (ItemId b = a + 1; b < db.num_items(); ++b) {
      for (ItemId c = b + 1; c < db.num_items(); ++c) {
        for (ItemId d = c + 1; d < db.num_items(); ++d) {
          Itemset candidate({a, b, c, d});
          const int64_t support = db.Support(candidate);
          if (support > best_support) {
            best_support = support;
            alpha = candidate;
          }
        }
      }
    }
  }
  ASSERT_GT(best_support, 0);
  const std::vector<Itemset> cores = EnumerateCorePatterns(db, alpha, tau);
  for (const Itemset& beta1 : cores) {
    for (const Itemset& beta2 : cores) {
      EXPECT_LE(PatternDistance(MakePattern(db, beta1),
                                MakePattern(db, beta2)),
                radius + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem2RandomTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(BallQueryTest, FindsExactlyThePatternsInRange) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {
      MakePattern(db, Itemset({0})),        // a: 300
      MakePattern(db, Itemset({1})),        // b: 300
      MakePattern(db, Itemset({0, 1})),     // ab: 200
      MakePattern(db, Itemset({2, 4})),     // cf: 300
  };
  const Pattern center = MakePattern(db, Itemset({0, 1, 3}));  // abe: 200
  // Distances to abe's support set: a → 1−200/300 = 1/3; b → 1/3;
  // ab → 0; cf → 1−100/400 = 0.75.
  std::vector<int64_t> ball = BallQuery(pool, center, 0.5);
  EXPECT_EQ(ball, (std::vector<int64_t>{0, 1, 2}));
  ball = BallQuery(pool, center, 0.1);
  EXPECT_EQ(ball, (std::vector<int64_t>{2}));
  ball = BallQuery(pool, center, 1.0);
  EXPECT_EQ(ball.size(), 4u);
}

TEST(BallQueryTest, BoundaryDistancesAreIncluded) {
  TransactionDatabase db = MakeDiag(40);
  // Two disjoint 20-item halves: Dist = 1 − (40−40)/(40−0) = 1 … take
  // overlapping halves instead: |X∩Y| = 10, |X∪Y| = 30 → Dist = 2/3,
  // exactly r(0.5). The epsilon in BallQuery must keep it.
  std::vector<ItemId> x_items, y_items;
  for (ItemId i = 0; i < 20; ++i) x_items.push_back(i);
  for (ItemId i = 10; i < 30; ++i) y_items.push_back(i);
  std::vector<Pattern> pool = {
      MakePattern(db, Itemset::FromUnsorted(y_items))};
  const Pattern center = MakePattern(db, Itemset::FromUnsorted(x_items));
  EXPECT_NEAR(PatternDistance(center, pool[0]), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(BallQuery(pool, center, BallRadius(0.5)).size(), 1u);
}

// BallQuery must keep exactly the patterns a brute-force PatternDistance
// filter keeps, at every radius, including the degenerate pairs its
// single-AndCount formula folds in: empty support sets (distance 0 to
// each other, 1 to anything else) and disjoint sets (distance 1).
// The columnar scan is checked against the same brute force. Wherever
// BallIsWholePool holds for a center, the ball must be the whole pool;
// `certified`, if given, counts those centers.
void ExpectBallQueryMatchesBruteForce(const std::vector<Pattern>& pool,
                                      double radius,
                                      int* certified = nullptr) {
  StatusOr<PatternPool> columnar =
      PatternPool::FromPatterns(pool[0].support_set.size_bits(), pool);
  ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
  ASSERT_EQ(columnar->size(), static_cast<int64_t>(pool.size()));
  std::vector<int64_t> whole_pool(pool.size());
  std::iota(whole_pool.begin(), whole_pool.end(), int64_t{0});
  for (const Pattern& center : pool) {
    std::vector<int64_t> expected;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (PatternDistance(pool[i], center) <= radius + 1e-9) {
        expected.push_back(static_cast<int64_t>(i));
      }
    }
    if (BallIsWholePool(columnar->num_bits(), center.support,
                        columnar->MinSupport(), radius)) {
      EXPECT_EQ(expected, whole_pool)
          << "certified center " << center.items.ToString() << " radius "
          << radius;
      if (certified != nullptr) ++*certified;
    }
    EXPECT_EQ(BallQuery(pool, center, radius), expected)
        << "center " << center.items.ToString() << " radius " << radius;
    EXPECT_EQ(BallQuery(*columnar, center.support_set.words(), center.support,
                        radius),
              expected)
        << "pool scan, center " << center.items.ToString() << " radius "
        << radius;
  }
}

Pattern EmptySupportPattern(const TransactionDatabase& db, ItemId item) {
  Pattern pattern;
  pattern.items = Itemset::Single(item);
  pattern.support_set = Bitvector(db.num_transactions());
  return pattern;
}

// Sparse pools (with empty support sets, so the certificate holds only
// at radius 1) and dense ones, where supports near |D| let the
// whole-pool certificate hold at the radii of several τ.
TEST(BallQueryTest, MatchesBruteForceOnRandomPools) {
  struct Shape {
    int64_t num_transactions;
    double density;
  };
  int certified = 0;
  for (const Shape& shape : {Shape{50, 0.3}, Shape{38, 0.85}, Shape{64, 0.9},
                             Shape{65, 0.9}, Shape{130, 0.95}}) {
    for (uint64_t seed : {1, 2, 3}) {
      RandomDatabaseOptions options;
      options.num_transactions = shape.num_transactions;
      options.num_items = 12;
      options.density = shape.density;
      options.seed = seed;
      TransactionDatabase db = MakeRandomDatabase(options);
      std::vector<Pattern> pool;
      for (ItemId i = 0; i < db.num_items(); ++i) {
        for (ItemId j = i; j < db.num_items(); ++j) {
          pool.push_back(MakePattern(db, Itemset::FromUnsorted({i, j})));
        }
      }
      if (shape.density < 0.5) {
        pool.push_back(EmptySupportPattern(db, 100));
        pool.push_back(EmptySupportPattern(db, 101));
      }
      for (double radius :
           {0.0, 0.1, BallRadius(0.3), BallRadius(0.5), BallRadius(0.7),
            BallRadius(0.9), BallRadius(1.0), BallRadius(0.25), 0.999, 1.0}) {
        ExpectBallQueryMatchesBruteForce(pool, radius, &certified);
      }
    }
  }
  EXPECT_GT(certified, 0);
}

TEST(BallQueryTest, MatchesBruteForceOnDisjointAndBoundaryPairs) {
  // DiagPlus: diag and colossal-block items never co-occur, so many
  // pairs are disjoint (kept only at radius 1). Pure Diag halves that
  // overlap by half sit at exactly 2/3 = r(0.5).
  LabeledDatabase labeled = MakeDiagPlus(10, 5);
  std::vector<Pattern> pool;
  for (ItemId item : {0, 1, 2, 10, 11}) {
    pool.push_back(MakePattern(labeled.db, Itemset::Single(item)));
  }
  pool.push_back(EmptySupportPattern(labeled.db, 200));
  for (double radius : {BallRadius(0.5), 0.999, 1.0}) {
    ExpectBallQueryMatchesBruteForce(pool, radius);
  }

  TransactionDatabase diag = MakeDiag(24);
  std::vector<Pattern> halves;
  for (ItemId start : {0, 6, 12}) {
    std::vector<ItemId> items;
    for (ItemId i = start; i < start + 12; ++i) items.push_back(i);
    halves.push_back(MakePattern(diag, Itemset::FromUnsorted(items)));
  }
  EXPECT_NEAR(PatternDistance(halves[0], halves[1]), 2.0 / 3.0, 1e-12);
  ExpectBallQueryMatchesBruteForce(halves, BallRadius(0.5));
  EXPECT_EQ(BallQuery(halves, halves[0], BallRadius(0.5)).size(), 2u);
  // Not every half is in halves[0]'s ball, so the certificate must fail.
  EXPECT_FALSE(BallIsWholePool(24, 12, 12, BallRadius(0.5)));

  // Diag_30's 10-item patterns all have support 20, and two disjoint
  // ones share 30 − 20 = 10 rows of a 30-row union: exactly r(0.5), the
  // certificate's own worst case 1 − (20 + 20 − 30)/30. The certificate
  // holds only by WithinBall's epsilon, and the scan must agree.
  TransactionDatabase diag30 = MakeDiag(30);
  std::vector<Pattern> tenths;
  for (ItemId start : {0, 10, 20, 5}) {
    std::vector<ItemId> items;
    for (ItemId i = start; i < start + 10; ++i) items.push_back(i);
    tenths.push_back(MakePattern(diag30, Itemset::FromUnsorted(items)));
  }
  EXPECT_NEAR(PatternDistance(tenths[0], tenths[1]), 2.0 / 3.0, 1e-12);
  int certified = 0;
  ExpectBallQueryMatchesBruteForce(tenths, BallRadius(0.5), &certified);
  EXPECT_EQ(certified, 4);
}

// The pool scan against the vector form at the row widths on either
// side of one cache line (1, 8, 9 words) and at the trace stand-in's
// 69, for centers inside and outside the pool.
TEST(BallQueryTest, PoolScanMatchesVectorFormAtEveryWidth) {
  for (int64_t num_transactions : {38, 500, 540, 4395}) {
    RandomDatabaseOptions options;
    options.num_transactions = num_transactions;
    options.num_items = 16;
    options.density = 0.5;
    options.seed = static_cast<uint64_t>(num_transactions);
    TransactionDatabase db = MakeRandomDatabase(options);
    std::vector<Pattern> patterns;
    for (ItemId i = 0; i < db.num_items(); ++i) {
      for (ItemId j = i; j < db.num_items(); ++j) {
        patterns.push_back(MakePattern(db, Itemset::FromUnsorted({i, j})));
      }
    }
    StatusOr<PatternPool> pool =
        PatternPool::FromPatterns(num_transactions, patterns);
    ASSERT_TRUE(pool.ok());
    ASSERT_EQ(pool->words_per_row(), (num_transactions + 63) / 64);
    std::vector<Pattern> centers = {patterns[0], patterns[40],
                                    MakePattern(db, Itemset({1, 2, 3}))};
    // One buffer across every query, as the fusion engine's seeds share
    // one: each query must replace what the previous one left.
    std::vector<int64_t> reused = {-1, -2, -3};
    for (const Pattern& center : centers) {
      for (double radius : {0.2, BallRadius(0.5), BallRadius(0.25)}) {
        const std::vector<int64_t> expected =
            BallQuery(patterns, center, radius);
        EXPECT_EQ(BallQuery(*pool, center.support_set.words(), center.support,
                            radius),
                  expected)
            << num_transactions << " transactions, center "
            << center.items.ToString() << " radius " << radius;
        BallQuery(*pool, center.support_set.words(), center.support, radius,
                  &reused);
        EXPECT_EQ(reused, expected)
            << "reused buffer, " << num_transactions << " transactions";
      }
    }
  }
}

}  // namespace
}  // namespace colossal
