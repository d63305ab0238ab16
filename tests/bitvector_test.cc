#include "common/bitvector.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>


namespace colossal {
namespace {

TEST(BitvectorTest, ConstructsCleared) {
  Bitvector bits(130);
  EXPECT_EQ(bits.size_bits(), 130);
  EXPECT_EQ(bits.Count(), 0);
}

TEST(BitvectorTest, AllSetCountsExactly) {
  EXPECT_EQ(Bitvector::AllSet(1).Count(), 1);
  EXPECT_EQ(Bitvector::AllSet(64).Count(), 64);
  EXPECT_EQ(Bitvector::AllSet(65).Count(), 65);
  EXPECT_EQ(Bitvector::AllSet(130).Count(), 130);
}

TEST(BitvectorTest, SetTestReset) {
  Bitvector bits(100);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(99);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(99));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 4);
  bits.Reset(63);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.Count(), 3);
}

TEST(BitvectorTest, FromIndicesRoundTripsToIndices) {
  const std::vector<int64_t> indices = {0, 5, 63, 64, 120};
  Bitvector bits = Bitvector::FromIndices(130, indices);
  EXPECT_EQ(bits.ToIndices(), indices);
}

TEST(BitvectorTest, AndOrKernels) {
  Bitvector a = Bitvector::FromIndices(70, {1, 3, 65});
  Bitvector b = Bitvector::FromIndices(70, {3, 65, 69});
  EXPECT_EQ(Bitvector::And(a, b).ToIndices(),
            (std::vector<int64_t>{3, 65}));
  EXPECT_EQ(Bitvector::AndCount(a, b), 2);
  EXPECT_EQ(Bitvector::OrCount(a, b), 4);
}

TEST(BitvectorTest, InPlaceAndMatchesOutOfPlace) {
  Bitvector a = Bitvector::FromIndices(70, {1, 3, 65});
  Bitvector b = Bitvector::FromIndices(70, {3, 65, 69});
  Bitvector and_copy = a;
  and_copy.AndWith(b);
  EXPECT_EQ(and_copy, Bitvector::And(a, b));
}

TEST(BitvectorTest, SubsetChecks) {
  Bitvector small = Bitvector::FromIndices(100, {4, 70});
  Bitvector big = Bitvector::FromIndices(100, {4, 20, 70});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_TRUE(Bitvector(100).IsSubsetOf(small));
}

TEST(BitvectorTest, JaccardDistanceBasics) {
  Bitvector a = Bitvector::FromIndices(10, {0, 1, 2});
  Bitvector b = Bitvector::FromIndices(10, {1, 2, 3});
  // |∩| = 2, |∪| = 4.
  EXPECT_DOUBLE_EQ(Bitvector::JaccardDistance(a, b), 0.5);
  EXPECT_DOUBLE_EQ(Bitvector::JaccardDistance(a, a), 0.0);
  Bitvector empty(10);
  EXPECT_DOUBLE_EQ(Bitvector::JaccardDistance(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(Bitvector::JaccardDistance(a, empty), 1.0);
}

TEST(BitvectorTest, EqualityIncludesLength) {
  Bitvector a(64);
  Bitvector b(65);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == Bitvector(64));
}

TEST(BitvectorTest, ToStringShowsBitZeroFirst) {
  Bitvector bits = Bitvector::FromIndices(4, {1, 3});
  EXPECT_EQ(bits.ToString(), "0101");
}

TEST(BitvectorTest, OrWithShiftedStitchesAtAnyOffset) {
  // The shard-stitch kernel: for a sweep of destination sizes, shard
  // sizes and offsets (word-aligned and not), the shifted OR must equal
  // the bit-by-bit reference.
  for (int64_t total : {int64_t{70}, int64_t{128}, int64_t{200}}) {
    for (int64_t local_bits : {int64_t{1}, int64_t{63}, int64_t{64},
                               int64_t{65}}) {
      for (int64_t offset : {int64_t{0}, int64_t{1}, int64_t{37},
                             int64_t{64}, int64_t{70}}) {
        if (offset + local_bits > total) continue;
        Bitvector local(local_bits);
        for (int64_t i = 0; i < local_bits; i += 2) local.Set(i);
        local.Set(local_bits - 1);

        Bitvector stitched(total);
        stitched.Set(0);  // pre-existing bits must survive
        stitched.OrWithShifted(local, offset);

        Bitvector expected(total);
        expected.Set(0);
        for (int64_t i = 0; i < local_bits; ++i) {
          if (local.Test(i)) expected.Set(offset + i);
        }
        EXPECT_EQ(stitched, expected)
            << "total=" << total << " local=" << local_bits
            << " offset=" << offset;
      }
    }
  }
}

TEST(BitvectorTest, OrWithShiftedComposesAPartition) {
  // Stitching disjoint per-shard slices reproduces the whole: the exact
  // property the sharded miner relies on.
  Bitvector whole(150);
  for (int64_t i = 0; i < 150; ++i) {
    if ((i * 2654435761u) % 5 < 2) whole.Set(i);
  }
  Bitvector stitched(150);
  const int64_t cuts[] = {0, 40, 64, 110, 150};
  for (int c = 0; c + 1 < 5; ++c) {
    Bitvector slice(cuts[c + 1] - cuts[c]);
    for (int64_t i = cuts[c]; i < cuts[c + 1]; ++i) {
      if (whole.Test(i)) slice.Set(i - cuts[c]);
    }
    stitched.OrWithShifted(slice, cuts[c]);
  }
  EXPECT_EQ(stitched, whole);
}

TEST(BitvectorSerializationTest, RoundTripsEmptyAndZeroLength) {
  for (int64_t num_bits : {int64_t{0}, int64_t{1}, int64_t{100}}) {
    const Bitvector original(num_bits);  // all clear
    std::string data;
    original.AppendTo(&data);
    EXPECT_EQ(static_cast<int64_t>(data.size()),
              Bitvector::SerializedBytes(num_bits));
    size_t pos = 0;
    StatusOr<Bitvector> parsed = Bitvector::ParseFrom(data, &pos);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, original);
    EXPECT_EQ(pos, data.size());
  }
}

TEST(BitvectorSerializationTest, RoundTripsWordBoundaries) {
  for (int num_bits : {1, 63, 64, 65, 127, 128, 129}) {
    Bitvector original(num_bits);
    for (int i = 0; i < num_bits; i += 3) original.Set(i);
    original.Set(num_bits - 1);  // exercise the tail bit
    std::string data;
    original.AppendTo(&data);
    size_t pos = 0;
    StatusOr<Bitvector> parsed = Bitvector::ParseFrom(data, &pos);
    ASSERT_TRUE(parsed.ok()) << "num_bits=" << num_bits;
    EXPECT_EQ(*parsed, original) << "num_bits=" << num_bits;
  }
}

TEST(BitvectorSerializationTest, RoundTripsLargeVector) {
  Bitvector original(1 << 16);
  for (int64_t i = 0; i < original.size_bits(); ++i) {
    if ((i * 2654435761u) % 7 < 3) original.Set(i);
  }
  std::string data;
  original.AppendTo(&data);
  size_t pos = 0;
  StatusOr<Bitvector> parsed = Bitvector::ParseFrom(data, &pos);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, original);
  EXPECT_EQ(parsed->Count(), original.Count());
}

TEST(BitvectorSerializationTest, ConcatenatedVectorsParseInSequence) {
  const Bitvector first = Bitvector::FromIndices(70, {0, 64, 69});
  const Bitvector second = Bitvector::FromIndices(3, {1});
  std::string data;
  first.AppendTo(&data);
  second.AppendTo(&data);
  size_t pos = 0;
  StatusOr<Bitvector> a = Bitvector::ParseFrom(data, &pos);
  StatusOr<Bitvector> b = Bitvector::ParseFrom(data, &pos);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, first);
  EXPECT_EQ(*b, second);
  EXPECT_EQ(pos, data.size());
}

TEST(BitvectorSerializationTest, RejectsTruncatedInput) {
  Bitvector original = Bitvector::FromIndices(130, {0, 64, 129});
  std::string data;
  original.AppendTo(&data);
  for (size_t cut : {size_t{0}, size_t{4}, size_t{8}, data.size() - 1}) {
    const std::string truncated = data.substr(0, cut);
    size_t pos = 0;
    EXPECT_FALSE(Bitvector::ParseFrom(truncated, &pos).ok())
        << "cut=" << cut;
  }
}

TEST(BitvectorSerializationTest, RejectsHostileLengthWithoutAllocating) {
  // An 8-byte input declaring a near-INT64_MAX bit length must fail with
  // a Status, not die in a multi-exabyte allocation.
  for (uint64_t declared :
       {uint64_t{1} << 62, static_cast<uint64_t>(INT64_MAX) - 1,
        uint64_t{1000000}}) {
    std::string data;
    for (int byte = 0; byte < 8; ++byte) {
      data.push_back(static_cast<char>((declared >> (8 * byte)) & 0xff));
    }
    size_t pos = 0;
    StatusOr<Bitvector> parsed = Bitvector::ParseFrom(data, &pos);
    ASSERT_FALSE(parsed.ok()) << "declared=" << declared;
    EXPECT_NE(parsed.status().message().find("truncated"),
              std::string::npos);
  }
}

TEST(BitvectorSerializationTest, RejectsCorruptPadding) {
  Bitvector original(65);
  original.Set(64);
  std::string data;
  original.AppendTo(&data);
  // Set a bit beyond the declared 65 bits inside the second word.
  data[8 + 8 + 1] = static_cast<char>(data[8 + 8 + 1] | 0x02);
  size_t pos = 0;
  StatusOr<Bitvector> parsed = Bitvector::ParseFrom(data, &pos);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("beyond declared length"),
            std::string::npos);
}

TEST(BitvectorSerializationTest, AllSetHasCleanPadding) {
  // 65 bits leaves 63 padding bits in the tail word; the all-ones fill
  // must leave every one of them clear.
  const Bitvector ones = Bitvector::AllSet(65);
  EXPECT_EQ(ones.Count(), 65);
  std::string data;
  ones.AppendTo(&data);
  size_t pos = 0;
  StatusOr<Bitvector> parsed = Bitvector::ParseFrom(data, &pos);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Count(), 65);

  // And the parser still rejects set padding if bytes are corrupted in
  // flight: flip a padding bit in the serialized tail word.
  data[8 + 8 + 7] = static_cast<char>(data[8 + 8 + 7] | 0x80);
  pos = 0;
  StatusOr<Bitvector> corrupt = Bitvector::ParseFrom(data, &pos);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("beyond declared length"),
            std::string::npos);
}

// Parameterized sweep: kernels agree with a naive per-bit reference
// across lengths spanning word boundaries.
class BitvectorKernelSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitvectorKernelSweep, KernelsMatchNaiveReference) {
  const int num_bits = GetParam();
  Bitvector a(num_bits);
  Bitvector b(num_bits);
  int64_t expected_and = 0;
  int64_t expected_or = 0;
  for (int i = 0; i < num_bits; ++i) {
    const bool in_a = (i * 7 + 3) % 5 < 2;
    const bool in_b = (i * 11 + 1) % 3 == 0;
    if (in_a) a.Set(i);
    if (in_b) b.Set(i);
    if (in_a && in_b) ++expected_and;
    if (in_a || in_b) ++expected_or;
  }
  EXPECT_EQ(Bitvector::AndCount(a, b), expected_and);
  EXPECT_EQ(Bitvector::OrCount(a, b), expected_or);
  EXPECT_EQ(Bitvector::And(a, b).Count(), expected_and);
  if (expected_or > 0) {
    EXPECT_DOUBLE_EQ(Bitvector::JaccardDistance(a, b),
                     1.0 - static_cast<double>(expected_and) /
                               static_cast<double>(expected_or));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitvectorKernelSweep,
                         ::testing::Values(1, 2, 37, 63, 64, 65, 127, 128,
                                           129, 1000));

}  // namespace
}  // namespace colossal
