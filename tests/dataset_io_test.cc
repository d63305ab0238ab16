#include "data/dataset_io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/file_io.h"

namespace colossal {
namespace {

TEST(DatasetIoTest, ParsesSimpleDocument) {
  StatusOr<TransactionDatabase> db = ParseFimi("1 2 3\n2 3\n0\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_transactions(), 3);
  EXPECT_EQ(db->transaction(0), Itemset({1, 2, 3}));
  EXPECT_EQ(db->transaction(2), Itemset({0}));
}

TEST(DatasetIoTest, SkipsBlankLinesAndHandlesWhitespace) {
  StatusOr<TransactionDatabase> db = ParseFimi("  1\t2  \n\n\r\n3 4\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_transactions(), 2);
  EXPECT_EQ(db->transaction(1), Itemset({3, 4}));
}

TEST(DatasetIoTest, ReportsParseErrorWithLineNumber) {
  StatusOr<TransactionDatabase> db = ParseFimi("1 2\n3 x 4\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("line 2"), std::string::npos);
}

TEST(DatasetIoTest, RejectsNegativeNumbersAsParseError) {
  StatusOr<TransactionDatabase> db = ParseFimi("1 -2\n");
  EXPECT_FALSE(db.ok());
}

TEST(DatasetIoTest, RejectsEmptyDocument) {
  EXPECT_FALSE(ParseFimi("").ok());
  EXPECT_FALSE(ParseFimi("\n\n").ok());
}

TEST(DatasetIoTest, RejectsOversizedItemIds) {
  StatusOr<TransactionDatabase> db = ParseFimi("999999999999\n");
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().message().find("too large"), std::string::npos);
}

TEST(DatasetIoTest, ToFimiRoundTrips) {
  const std::string text = "1 2 3\n0 7\n5\n";
  StatusOr<TransactionDatabase> db = ParseFimi(text);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(ToFimiString(*db), text);
}

TEST(DatasetIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/colossal_io_test.fimi";
  StatusOr<TransactionDatabase> original = ParseFimi("4 5\n1 2 3\n");
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(WriteFimiFile(*original, path).ok());

  StatusOr<TransactionDatabase> reloaded = ReadFimiFile(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_transactions(), 2);
  EXPECT_EQ(ToFimiString(*reloaded), ToFimiString(*original));
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingFileIsNotFound) {
  StatusOr<TransactionDatabase> db =
      ReadFimiFile("/nonexistent/path/to/data.fimi");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.status().message(),
            "cannot open file: /nonexistent/path/to/data.fimi");
}

TEST(FileIoTest, ReadsEveryByte) {
  const std::string path = ::testing::TempDir() + "/colossal_io_bytes.bin";
  std::string bytes(70000, 'x');  // past any one stream buffer
  bytes[3] = '\0';
  bytes[69999] = '\n';
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  StatusOr<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, bytes);

  { std::ofstream truncate(path, std::ios::binary); }
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "");
  std::remove(path.c_str());
}

TEST(DatasetIoTest, FileParseErrorMentionsPath) {
  const std::string path = ::testing::TempDir() + "/colossal_io_bad.fimi";
  {
    std::ofstream out(path);
    out << "1 2\nbad line\n";
  }
  StatusOr<TransactionDatabase> db = ReadFimiFile(path);
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace colossal
