// Top-k colossal and constrained mining, end to end: constraint
// pushdown provably skips excluded items before any Bitvector
// materializes, result shaping matches its definition, and both modes
// are byte-identical across thread counts, shard counts, shard
// parallelism and kernel backends — the same determinism contract the
// unconstrained pipeline has always had.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector_kernels.h"
#include "core/colossal_miner.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "data/snapshot_io.h"
#include "mining/apriori.h"
#include "mining/eclat.h"
#include "mining/result_io.h"
#include "shard/shard_planner.h"
#include "shard/sharded_miner.h"

namespace colossal {
namespace {

std::string Render(const ColossalMiningResult& result) {
  return PatternsToString(ToFrequentItemsets(result.patterns));
}

// The introduction's scenario (planted colossal block over items
// [16, 31] at support 8, Diag noise below), sharded as {1, 2, 7}
// manifests — the same construction the sharded-miner tests use.
class ConstrainedMiningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new TransactionDatabase(MakeDiagPlus(16, 8).db);
    manifest_paths_ = new std::vector<std::string>();
    const std::string dir = ::testing::TempDir();
    for (int shards : {1, 2, 7}) {
      ShardPlanOptions options;
      options.num_shards = shards;
      StatusOr<std::vector<ShardRange>> plan = PlanShards(*db_, options);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      StatusOr<ShardWriteResult> written = WriteShardedSnapshots(
          *db_, *plan, dir, "constrained_" + std::to_string(shards));
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      manifest_paths_->push_back(written->manifest_path);
    }
  }

  static ShardLoader DiskLoader() {
    return [](const std::string& path,
              int64_t /*estimated_bytes*/) -> StatusOr<LoadedShard> {
      StatusOr<TransactionDatabase> db = ReadSnapshotFile(path);
      if (!db.ok()) return db.status();
      LoadedShard shard;
      shard.fingerprint = FingerprintDatabase(*db);
      shard.db = std::make_shared<const TransactionDatabase>(*std::move(db));
      return shard;
    };
  }

  static ColossalMinerOptions TopKOptions() {
    ColossalMinerOptions options;
    options.min_support_count = 8;
    options.initial_pool_max_size = 2;
    options.top_k = 5;
    options.seed = 3;
    return options;
  }

  static ColossalMinerOptions ConstrainedOptions() {
    ColossalMinerOptions options;
    options.min_support_count = 8;
    options.initial_pool_max_size = 2;
    options.k = 20;
    options.constraints.exclude = {0, 1};
    options.constraints.min_len = 2;
    options.seed = 3;
    return options;
  }

  static TransactionDatabase* db_;
  static std::vector<std::string>* manifest_paths_;  // 1, 2, 7 shards
};

TransactionDatabase* ConstrainedMiningTest::db_ = nullptr;
std::vector<std::string>* ConstrainedMiningTest::manifest_paths_ = nullptr;

// The acceptance-criterion proof that exclusion happens BEFORE
// materialization: with the pool bounded to single items, the complete
// miners' node counts are exact functions of how many items they touch,
// and Apriori's one level holds exactly the surviving items' support
// sets — an excluded item must subtract its node AND its row, not just
// vanish from the output.
TEST(ConstraintPushdownTest, ExcludedItemsNeverMaterializeBitvectors) {
  const TransactionDatabase db = MakeDiag(12);  // every item frequent
  MinerOptions unconstrained;
  unconstrained.min_support_count = 1;
  unconstrained.max_pattern_size = 1;
  MinerOptions constrained = unconstrained;
  constrained.constraints.exclude = {2, 5, 9};

  for (bool eclat : {false, true}) {
    StatusOr<MiningResult> all =
        eclat ? MineEclat(db, unconstrained) : MineApriori(db, unconstrained);
    StatusOr<MiningResult> some =
        eclat ? MineEclat(db, constrained) : MineApriori(db, constrained);
    ASSERT_TRUE(all.ok());
    ASSERT_TRUE(some.ok());

    // Node accounting: excluded items are not expanded at all. Both
    // miners stop at the 12 (resp. 9) level-1 nodes: at pool size 1
    // neither counts a size-2 candidate it could never emit.
    const int64_t full_items = db.num_items();
    const int64_t pruned_items = full_items - 3;
    EXPECT_EQ(all->stats.nodes_expanded, full_items) << eclat;
    EXPECT_EQ(some->stats.nodes_expanded, pruned_items) << eclat;
    EXPECT_EQ(some->patterns.size(), all->patterns.size() - 3) << eclat;
    for (const FrequentItemset& pattern : some->patterns) {
      for (ItemId item : pattern.items) {
        EXPECT_TRUE(constrained.constraints.ItemAllowed(item));
      }
    }
  }

  // Level accounting: at pool size 1 Apriori materializes one level, a
  // row of words_per_row() words per surviving item and nothing else,
  // so an excluded item's tidset copy would show as an extra row.
  std::vector<PatternPool> levels;
  StatusOr<MinerStats> mined =
      MineAprioriLevels(db, constrained, [&](PatternPool level) {
        levels.push_back(std::move(level));
      });
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_EQ(levels.size(), 1u);
  const PatternPool& level = levels[0];
  EXPECT_EQ(level.size(), db.num_items() - 3);
  EXPECT_EQ(level.words_per_row(), Bitvector::WordsFor(db.num_transactions()));
  for (int64_t i = 0; i < level.size(); ++i) {
    ASSERT_EQ(level.pattern_size(i), 1);
    const ItemId item = level.items(i)[0];
    EXPECT_TRUE(constrained.constraints.ItemAllowed(item)) << item;
    EXPECT_EQ(level.support(i), db.item_tidset(item).Count()) << item;
  }
}

TEST(ConstraintPushdownTest, IncludeListBoundsTheVocabulary) {
  const TransactionDatabase db = MakeDiag(12);
  MinerOptions options;
  options.min_support_count = 1;
  options.max_pattern_size = 2;
  options.constraints.include = {0, 3, 7};
  StatusOr<MiningResult> mined = MineApriori(db, options);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined->patterns.empty());
  for (const FrequentItemset& pattern : mined->patterns) {
    for (ItemId item : pattern.items) {
      EXPECT_TRUE(options.constraints.ItemAllowed(item));
    }
  }
}

// Top-k mode is, by definition, the k-largest prefix of the same
// pipeline run with the fusion budget k = top_k: canonicalization
// rewrites k, so the two spellings must mine identically up to the
// final truncation.
TEST_F(ConstrainedMiningTest, TopKIsTheTruncatedEquivalentRun) {
  ColossalMinerOptions top_k = TopKOptions();
  ColossalMinerOptions equivalent = top_k;
  equivalent.top_k = 0;
  equivalent.k = TopKOptions().top_k;

  StatusOr<ColossalMiningResult> shaped = MineColossal(*db_, top_k);
  StatusOr<ColossalMiningResult> full = MineColossal(*db_, equivalent);
  ASSERT_TRUE(shaped.ok()) << shaped.status().ToString();
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  ASSERT_LE(shaped->patterns.size(), static_cast<size_t>(top_k.top_k));
  ASSERT_LE(shaped->patterns.size(), full->patterns.size());
  for (size_t i = 0; i < shaped->patterns.size(); ++i) {
    EXPECT_TRUE(shaped->patterns[i] == full->patterns[i]) << i;
  }
  // Largest-first is the result order, so the truncation is "the k
  // largest" under (size desc, lex).
  for (size_t i = 1; i < shaped->patterns.size(); ++i) {
    EXPECT_GE(shaped->patterns[i - 1].size(), shaped->patterns[i].size());
  }
}

TEST_F(ConstrainedMiningTest, LengthBoundsShapeTheAnswer) {
  ColossalMinerOptions bounded;
  bounded.min_support_count = 8;
  bounded.initial_pool_max_size = 3;
  bounded.k = 20;
  bounded.constraints.min_len = 2;
  bounded.constraints.max_len = 4;
  StatusOr<ColossalMiningResult> mined = MineColossal(*db_, bounded);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_FALSE(mined->patterns.empty());
  for (const Pattern& pattern : mined->patterns) {
    EXPECT_GE(pattern.size(), 2);
    EXPECT_LE(pattern.size(), 4);
  }
  // max_len pushdown: the canonical pool never mines past the bound.
  StatusOr<ColossalMinerOptions> canonical =
      CanonicalizeMinerOptions(*db_, bounded);
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(canonical->initial_pool_max_size, 3);
  bounded.constraints.max_len = 2;
  canonical = CanonicalizeMinerOptions(*db_, bounded);
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(canonical->initial_pool_max_size, 2);
}

// The determinism matrix, both modes: threads {1, 8} × shards {1, 2, 7}
// × shard parallelism {1, 4} × {scalar, dispatched} kernels, every cell
// byte-identical to the single-threaded unsharded reference (exact
// sharding reproduces unsharded mining; performance knobs never touch
// the answer).
TEST_F(ConstrainedMiningTest, ModesAreByteIdenticalAcrossTheMatrix) {
  for (const bool top_k_mode : {true, false}) {
    const ColossalMinerOptions base =
        top_k_mode ? TopKOptions() : ConstrainedOptions();
    StatusOr<ColossalMiningResult> reference = MineColossal(*db_, base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string reference_text = Render(*reference);
    ASSERT_FALSE(reference_text.empty());

    for (const bool force_scalar : {false, true}) {
      SetBitvectorForceScalar(force_scalar);
      for (int threads : {1, 8}) {
        ColossalMinerOptions options = base;
        options.num_threads = threads;
        StatusOr<ColossalMiningResult> unsharded =
            MineColossal(*db_, options);
        ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
        EXPECT_EQ(Render(*unsharded), reference_text)
            << "top_k=" << top_k_mode << " scalar=" << force_scalar
            << " threads=" << threads;

        for (const std::string& manifest_path : *manifest_paths_) {
          StatusOr<ShardManifest> manifest =
              ReadShardManifestFile(manifest_path);
          ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
          for (int parallelism : {1, 4}) {
            options.shard_parallelism = parallelism;
            ShardedMiner miner(*manifest, DiskLoader());
            StatusOr<ColossalMiningResult> sharded =
                miner.Mine(options, ShardMergeMode::kExact);
            ASSERT_TRUE(sharded.ok())
                << manifest_path << ": " << sharded.status().ToString();
            EXPECT_EQ(Render(*sharded), reference_text)
                << "top_k=" << top_k_mode << " scalar=" << force_scalar
                << " threads=" << threads << " manifest=" << manifest_path
                << " parallelism=" << parallelism;
          }
          options.shard_parallelism = 0;
        }
      }
      SetBitvectorForceScalar(false);
    }
  }
}

TEST_F(ConstrainedMiningTest, ShardedConstraintPushdownSkipsExcludedItems) {
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[1]);  // 2 shards
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  ColossalMinerOptions constrained;
  constrained.min_support_count = 8;
  constrained.initial_pool_max_size = 2;
  constrained.k = 20;
  // Allow only the planted block's vocabulary (items 16..31).
  for (ItemId item = 16; item < 32; ++item) {
    constrained.constraints.include.push_back(item);
  }

  // Whether each shard job pushes the constraints into its own miner is
  // pinned by the sharded-vs-unsharded matrix above; here the answer
  // itself must stay inside the vocabulary.
  ShardedMiner pruned(*manifest, DiskLoader());
  StatusOr<ColossalMiningResult> some =
      pruned.Mine(constrained, ShardMergeMode::kExact);
  ASSERT_TRUE(some.ok()) << some.status().ToString();

  for (const Pattern& pattern : some->patterns) {
    for (ItemId item : pattern.items) {
      EXPECT_GE(item, 16u);
    }
  }
}

}  // namespace
}  // namespace colossal
