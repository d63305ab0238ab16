#include "common/itemset.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"

namespace colossal {
namespace {

TEST(ItemsetTest, DefaultIsEmpty) {
  Itemset itemset;
  EXPECT_TRUE(itemset.empty());
  EXPECT_EQ(itemset.size(), 0);
  EXPECT_EQ(itemset.ToString(), "{}");
}

TEST(ItemsetTest, InitializerListSortsAndDeduplicates) {
  Itemset itemset({5, 1, 3, 1, 5});
  EXPECT_EQ(itemset.size(), 3);
  EXPECT_EQ(itemset[0], 1u);
  EXPECT_EQ(itemset[1], 3u);
  EXPECT_EQ(itemset[2], 5u);
}

TEST(ItemsetTest, FromUnsortedNormalizes) {
  Itemset itemset = Itemset::FromUnsorted({9, 2, 2, 7});
  EXPECT_EQ(itemset, Itemset({2, 7, 9}));
}

TEST(ItemsetTest, FromSortedAcceptsStrictlyIncreasing) {
  Itemset itemset = Itemset::FromSorted({1, 4, 6});
  EXPECT_EQ(itemset.size(), 3);
}

TEST(ItemsetTest, SingleMakesSingleton) {
  EXPECT_EQ(Itemset::Single(7), Itemset({7}));
}

TEST(ItemsetTest, ContainsFindsMembers) {
  Itemset itemset({2, 4, 8});
  EXPECT_TRUE(itemset.Contains(2));
  EXPECT_TRUE(itemset.Contains(8));
  EXPECT_FALSE(itemset.Contains(3));
  EXPECT_FALSE(itemset.Contains(9));
}

TEST(ItemsetTest, SubsetChecks) {
  Itemset small({1, 3});
  Itemset big({0, 1, 2, 3});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_TRUE(Itemset().IsSubsetOf(small));
  EXPECT_TRUE(small.IsProperSubsetOf(big));
  EXPECT_FALSE(small.IsProperSubsetOf(small));
}

TEST(ItemsetTest, UnionIntersectionDifference) {
  Itemset a({1, 2, 3});
  Itemset b({3, 4});
  EXPECT_EQ(Union(a, b), Itemset({1, 2, 3, 4}));
  EXPECT_EQ(Intersection(a, b), Itemset({3}));
  EXPECT_EQ(Difference(a, b), Itemset({1, 2}));
  EXPECT_EQ(Difference(b, a), Itemset({4}));
}

TEST(ItemsetTest, SetAlgebraWithEmpty) {
  Itemset a({1, 2});
  Itemset empty;
  EXPECT_EQ(Union(a, empty), a);
  EXPECT_EQ(Intersection(a, empty), empty);
  EXPECT_EQ(Difference(a, empty), a);
  EXPECT_EQ(Difference(empty, a), empty);
}

TEST(ItemsetTest, IntersectionSizeMatchesIntersection) {
  Itemset a({1, 2, 5, 9});
  Itemset b({2, 3, 5, 10});
  EXPECT_EQ(IntersectionSize(a, b), Intersection(a, b).size());
  EXPECT_EQ(IntersectionSize(a, b), 2);
}

// Paper Definition 8 example: Edit((abcd), (acde)) = 2.
TEST(ItemsetTest, EditDistancePaperExample) {
  Itemset abcd({0, 1, 2, 3});   // a b c d
  Itemset acde({0, 2, 3, 4});   // a c d e
  EXPECT_EQ(EditDistance(abcd, acde), 2);
}

TEST(ItemsetTest, EditDistanceBasics) {
  Itemset a({1, 2, 3});
  EXPECT_EQ(EditDistance(a, a), 0);
  EXPECT_EQ(EditDistance(a, Itemset()), 3);
  EXPECT_EQ(EditDistance(Itemset(), Itemset()), 0);
  EXPECT_EQ(EditDistance(a, Itemset({4, 5})), 5);
}

TEST(ItemsetTest, OrderingIsLexicographic) {
  EXPECT_LT(Itemset({1, 2}), Itemset({1, 3}));
  EXPECT_LT(Itemset({1}), Itemset({1, 2}));
  EXPECT_FALSE(Itemset({2}) < Itemset({1, 5}));
}

TEST(ItemsetTest, HashEqualForEqualSets) {
  Itemset a = Itemset::FromUnsorted({3, 1, 2});
  Itemset b({1, 2, 3});
  EXPECT_EQ(HashItems(a.items()), HashItems(b.items()));
}

TEST(ItemsetTest, HashDiffersForPrefixVariants) {
  // Not a guarantee of the hash, but these simple cases must not collide
  // for the dedup tables to perform.
  EXPECT_NE(HashItems(Itemset({1}).items()),
            HashItems(Itemset({1, 2}).items()));
  EXPECT_NE(HashItems(Itemset({1, 2}).items()),
            HashItems(Itemset({2, 1, 3}).items()));
}

// Property sweep: edit distance is a metric on random itemsets.
class EditDistanceMetricTest : public ::testing::TestWithParam<int> {};

TEST_P(EditDistanceMetricTest, TriangleInequalityHolds) {
  const int salt = GetParam();
  auto make = [salt](int which) {
    std::vector<ItemId> items;
    for (int i = 0; i < 12; ++i) {
      // Deterministic pseudo-random membership.
      if (((i * 2654435761u + which * 40503u + salt * 69621u) >> 7) % 3 == 0) {
        items.push_back(static_cast<ItemId>(i));
      }
    }
    return Itemset::FromUnsorted(items);
  };
  const Itemset a = make(1);
  const Itemset b = make(2);
  const Itemset c = make(3);
  EXPECT_LE(EditDistance(a, c), EditDistance(a, b) + EditDistance(b, c));
  EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
  EXPECT_EQ(EditDistance(a, a), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EditDistanceMetricTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace colossal
