#include "shard/shard_manifest.h"

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "data/dataset_io.h"
#include "data/generators.h"
#include "data/snapshot_io.h"
#include "shard/shard_planner.h"

namespace colossal {
namespace {

ShardManifest MakeValidManifest() {
  ShardManifest manifest;
  manifest.parent_fingerprint = 0x1122334455667788ull;
  manifest.num_transactions = 10;
  manifest.num_items = 5;
  manifest.shards.push_back({"a.snap", 0, 6, 0xaaull});
  manifest.shards.push_back({"b.snap", 6, 10, 0xbbull});
  return manifest;
}

TEST(ShardManifestTest, RoundTripsThroughText) {
  const ShardManifest manifest = MakeValidManifest();
  const std::string text = ToManifestString(manifest);
  EXPECT_TRUE(LooksLikeShardManifest(text));

  StatusOr<ShardManifest> parsed = ParseShardManifest(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->parent_fingerprint, manifest.parent_fingerprint);
  EXPECT_EQ(parsed->num_transactions, 10);
  EXPECT_EQ(parsed->num_items, 5);
  ASSERT_EQ(parsed->shards.size(), 2u);
  EXPECT_EQ(parsed->shards[0].path, "a.snap");
  EXPECT_EQ(parsed->shards[0].row_begin, 0);
  EXPECT_EQ(parsed->shards[0].row_end, 6);
  EXPECT_EQ(parsed->shards[0].fingerprint, 0xaaull);
  EXPECT_EQ(parsed->shards[1].rows(), 4);
}

TEST(ShardManifestTest, RejectsBadMagic) {
  StatusOr<ShardManifest> parsed = ParseShardManifest("1 2 3\n4 5\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardManifestTest, RejectsTruncatedDocuments) {
  const std::string text = ToManifestString(MakeValidManifest());
  // Every prefix that still carries the magic but cuts before the final
  // shard's path must fail with a Status (cuts *inside* that trailing
  // path merely shorten it — the per-shard fingerprint check catches
  // those at load time instead).
  const size_t limit = text.rfind("b.snap") + 1;
  for (size_t cut = 10; cut < limit; ++cut) {
    StatusOr<ShardManifest> parsed =
        ParseShardManifest(text.substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "cut=" << cut;
  }
}

TEST(ShardManifestTest, RejectsOverlappingRowRanges) {
  std::string text =
      "CPFSHARD1\n"
      "parent 00000000000000aa 10 5\n"
      "shard 0 6 00000000000000ab a.snap\n"
      "shard 5 10 00000000000000ac b.snap\n";
  StatusOr<ShardManifest> parsed = ParseShardManifest(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("overlaps"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ShardManifestTest, RejectsGappedRowRanges) {
  std::string text =
      "CPFSHARD1\n"
      "parent 00000000000000aa 10 5\n"
      "shard 0 4 00000000000000ab a.snap\n"
      "shard 6 10 00000000000000ac b.snap\n";
  StatusOr<ShardManifest> parsed = ParseShardManifest(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("gap"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ShardManifestTest, RejectsShardsNotCoveringTheParent) {
  // First shard starting past 0.
  EXPECT_FALSE(ParseShardManifest("CPFSHARD1\n"
                                  "parent 00000000000000aa 10 5\n"
                                  "shard 2 10 00000000000000ab a.snap\n")
                   .ok());
  // Last shard ending short of num_transactions.
  EXPECT_FALSE(ParseShardManifest("CPFSHARD1\n"
                                  "parent 00000000000000aa 10 5\n"
                                  "shard 0 8 00000000000000ab a.snap\n")
                   .ok());
  // Shard running past num_transactions.
  EXPECT_FALSE(ParseShardManifest("CPFSHARD1\n"
                                  "parent 00000000000000aa 10 5\n"
                                  "shard 0 12 00000000000000ab a.snap\n")
                   .ok());
}

TEST(ShardManifestTest, RejectsMalformedRecords) {
  // Bad fingerprint hex.
  EXPECT_FALSE(ParseShardManifest("CPFSHARD1\n"
                                  "parent zznotahex 10 5\n"
                                  "shard 0 10 00000000000000ab a.snap\n")
                   .ok());
  // Unknown record type.
  EXPECT_FALSE(ParseShardManifest("CPFSHARD1\n"
                                  "parent 00000000000000aa 10 5\n"
                                  "bogus 0 10 00000000000000ab a.snap\n")
                   .ok());
  // Shard before parent.
  EXPECT_FALSE(ParseShardManifest("CPFSHARD1\n"
                                  "shard 0 10 00000000000000ab a.snap\n")
                   .ok());
  // Empty row range.
  EXPECT_FALSE(ParseShardManifest("CPFSHARD1\n"
                                  "parent 00000000000000aa 10 5\n"
                                  "shard 0 0 00000000000000ab a.snap\n"
                                  "shard 0 10 00000000000000ac b.snap\n")
                   .ok());
}

TEST(ShardManifestTest, FileRoundTripResolvesRelativePaths) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/roundtrip.manifest";
  ASSERT_TRUE(WriteShardManifestFile(MakeValidManifest(), path).ok());
  EXPECT_TRUE(IsShardManifestFile(path));

  StatusOr<ShardManifest> loaded = ReadShardManifestFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Relative shard paths are resolved against the manifest's directory.
  EXPECT_EQ(loaded->shards[0].path, dir + "/a.snap");
  EXPECT_EQ(loaded->shards[1].path, dir + "/b.snap");
}

TEST(ShardManifestTest, SniffRejectsOtherFiles) {
  EXPECT_FALSE(IsShardManifestFile(::testing::TempDir() + "/nonexistent"));
  const std::string fimi = ::testing::TempDir() + "/sniff.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(8), fimi).ok());
  EXPECT_FALSE(IsShardManifestFile(fimi));
  EXPECT_FALSE(LooksLikeShardManifest("CPFSNAP1xxxxxxxx"));
  EXPECT_FALSE(LooksLikeShardManifest("CPFSHARD1"));  // needs the newline
}

TEST(ShardManifestTest, SingleDatabaseLoadersRejectManifests) {
  const std::string path = ::testing::TempDir() + "/reject.manifest";
  ASSERT_TRUE(WriteShardManifestFile(MakeValidManifest(), path).ok());
  StatusOr<TransactionDatabase> db = LoadDatabaseFile(path, "auto");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  // Names the ways that do work, and no removed --shards mode.
  EXPECT_EQ(db.status().message(),
            path + ": is a shard manifest, not a dataset — mine it through "
                   "colossal_serve (a request line's --in) or load one of "
                   "its shard snapshots");
}

TEST(ShardPlannerTest, SplitsRowsNearEvenly) {
  const TransactionDatabase db = MakeDiag(10);
  ShardPlanOptions options;
  options.num_shards = 3;
  StatusOr<std::vector<ShardRange>> plan = PlanShards(db, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->size(), 3u);
  EXPECT_EQ((*plan)[0], (ShardRange{0, 4}));
  EXPECT_EQ((*plan)[1], (ShardRange{4, 7}));
  EXPECT_EQ((*plan)[2], (ShardRange{7, 10}));
}

TEST(ShardPlannerTest, ByteBudgetTilesTheDatabase) {
  const TransactionDatabase db = MakeDiagPlus(16, 8).db;
  ShardPlanOptions options;
  options.max_shard_bytes = 1024;
  StatusOr<std::vector<ShardRange>> plan = PlanShards(db, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_GE(plan->size(), 2u);
  int64_t expected_begin = 0;
  for (const ShardRange& range : *plan) {
    EXPECT_EQ(range.begin, expected_begin);
    EXPECT_GT(range.end, range.begin);
    expected_begin = range.end;
  }
  EXPECT_EQ(expected_begin, db.num_transactions());
}

TEST(ShardPlannerTest, RejectsBadKnobs) {
  const TransactionDatabase db = MakeDiag(4);
  EXPECT_FALSE(PlanShards(db, {}).ok());  // neither knob
  ShardPlanOptions both;
  both.num_shards = 2;
  both.max_shard_bytes = 1024;
  EXPECT_FALSE(PlanShards(db, both).ok());
  ShardPlanOptions too_many;
  too_many.num_shards = 5;
  EXPECT_FALSE(PlanShards(db, too_many).ok());
}

TEST(ShardPlannerTest, WriteShardedSnapshotsProducesLoadableShards) {
  const TransactionDatabase db = MakeDiagPlus(12, 6).db;
  // A nested directory that does not exist yet: the writer creates it.
  const std::string root =
      ::testing::TempDir() + "/planner_" + std::to_string(::getpid());
  const std::string dir = root + "/nested/shards";
  std::filesystem::remove_all(root);
  ShardPlanOptions options;
  options.num_shards = 3;
  StatusOr<std::vector<ShardRange>> plan = PlanShards(db, options);
  ASSERT_TRUE(plan.ok());
  StatusOr<ShardWriteResult> written =
      WriteShardedSnapshots(db, *plan, dir, "planner_rt");
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->manifest.parent_fingerprint, FingerprintDatabase(db));

  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile(written->manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  int64_t rows = 0;
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    StatusOr<TransactionDatabase> shard =
        ReadSnapshotFile(manifest->shards[i].path);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    EXPECT_EQ(shard->num_transactions(), manifest->shards[i].rows());
    EXPECT_EQ(FingerprintDatabase(*shard), manifest->shards[i].fingerprint);
    // The shard's rows are the parent's rows at the range, verbatim.
    for (int64_t t = 0; t < shard->num_transactions(); ++t) {
      EXPECT_TRUE(shard->transaction(t) ==
                  db.transaction(manifest->shards[i].row_begin + t));
    }
    rows += shard->num_transactions();
  }
  EXPECT_EQ(rows, db.num_transactions());
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace colossal
