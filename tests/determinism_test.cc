// Determinism regression tests for the parallel fusion engine: with a
// fixed seed, the entire pipeline — initial-pool mining and pattern
// fusion — must produce bit-identical output for every thread count.
// This is the contract that lets `--threads` be a pure performance knob.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector_kernels.h"
#include "common/hash.h"
#include "core/colossal_miner.h"
#include "core/pattern_fusion.h"
#include "data/generators.h"
#include "data/snapshot_io.h"
#include "mining/apriori.h"
#include "mining/eclat.h"
#include "service/dispatch.h"
#include "service/mining_service.h"
#include "shard/shard_manifest.h"
#include "shard/shard_planner.h"
#include "shard/sharded_miner.h"

namespace colossal {
namespace {

// Compares full patterns (itemset, support, support set), not just
// itemsets: a scheduling-dependent support-set would be a real bug even
// if the itemsets happened to agree.
void ExpectSamePatterns(const std::vector<Pattern>& a,
                        const std::vector<Pattern>& b, int threads) {
  ASSERT_EQ(a.size(), b.size()) << "num_threads=" << threads;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "pattern " << i << " differs at num_threads="
                          << threads;
  }
}

TEST(DeterminismTest, MineColossalIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeDiagPlus(30, 15);
  ColossalMinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 50;
  options.seed = 7;

  options.num_threads = 1;
  StatusOr<ColossalMiningResult> reference = MineColossal(labeled.db, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    StatusOr<ColossalMiningResult> result = MineColossal(labeled.db, options);
    ASSERT_TRUE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result->initial_pool_size, reference->initial_pool_size);
    EXPECT_EQ(result->iterations, reference->iterations);
    EXPECT_EQ(result->converged, reference->converged);
    ExpectSamePatterns(result->patterns, reference->patterns, threads);
  }
}

TEST(DeterminismTest, FusionEngineIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeMicroarrayLike(5);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, 30, 2, PoolMiner::kApriori, 1);
  ASSERT_TRUE(pool.ok());

  PatternFusionOptions options;
  options.min_support_count = 30;
  options.tau = 0.5;
  options.k = 40;
  options.seed = 19;

  options.num_threads = 1;
  StatusOr<PatternFusionResult> reference =
      RunPatternFusion(labeled.db, *pool, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    StatusOr<PatternFusionResult> result =
        RunPatternFusion(labeled.db, *pool, options);
    ASSERT_TRUE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result->converged, reference->converged);
    ASSERT_EQ(result->iterations.size(), reference->iterations.size());
    for (size_t i = 0; i < result->iterations.size(); ++i) {
      EXPECT_EQ(result->iterations[i].pool_size,
                reference->iterations[i].pool_size);
      EXPECT_EQ(result->iterations[i].min_pattern_size,
                reference->iterations[i].min_pattern_size);
      EXPECT_EQ(result->iterations[i].max_pattern_size,
                reference->iterations[i].max_pattern_size);
    }
    ExpectSamePatterns(result->patterns, reference->patterns, threads);
  }
}

TEST(DeterminismTest, AprioriIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeDiagPlus(24, 12);
  MinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.max_pattern_size = 3;

  options.num_threads = 1;
  StatusOr<MiningResult> reference = MineApriori(labeled.db, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    StatusOr<MiningResult> result = MineApriori(labeled.db, options);
    ASSERT_TRUE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result->patterns, reference->patterns)
        << "num_threads=" << threads;
    EXPECT_EQ(result->stats.nodes_expanded, reference->stats.nodes_expanded);
  }
}

TEST(DeterminismTest, EclatIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeDiagPlus(24, 12);
  MinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.max_pattern_size = 3;

  options.num_threads = 1;
  StatusOr<MiningResult> reference = MineEclat(labeled.db, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    StatusOr<MiningResult> result = MineEclat(labeled.db, options);
    ASSERT_TRUE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result->patterns, reference->patterns)
        << "num_threads=" << threads;
    EXPECT_EQ(result->stats.nodes_expanded, reference->stats.nodes_expanded);
  }
}

TEST(DeterminismTest, NegativeNumThreadsIsRejectedNotFatal) {
  TransactionDatabase db = MakeDiag(6);
  MinerOptions miner_options;
  miner_options.min_support_count = 1;
  miner_options.num_threads = -1;
  EXPECT_FALSE(MineApriori(db, miner_options).ok());
  EXPECT_FALSE(MineEclat(db, miner_options).ok());

  std::vector<Pattern> pool = {MakePattern(db, Itemset({0}))};
  PatternFusionOptions fusion_options;
  fusion_options.num_threads = -1;
  EXPECT_FALSE(RunPatternFusion(db, pool, fusion_options).ok());
}

TEST(DeterminismTest, BuildInitialPoolIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeDiagPlus(20, 10);
  StatusOr<std::vector<Pattern>> reference = BuildInitialPool(
      labeled.db, labeled.min_support_count, 2, PoolMiner::kApriori, 1);
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 8}) {
    StatusOr<std::vector<Pattern>> pool = BuildInitialPool(
        labeled.db, labeled.min_support_count, 2, PoolMiner::kApriori,
        threads);
    ASSERT_TRUE(pool.ok());
    ExpectSamePatterns(*pool, *reference, threads);
  }
}

// Backend dispatch is invisible in the output: the scalar kernels and
// whatever backend the host resolves (AVX2 here when supported) must
// mine bit-identical results. On a scalar-only host the two runs
// coincide; CI's COLOSSAL_FORCE_SCALAR leg plus an AVX2 host cover both
// sides.
TEST(DeterminismTest, MineColossalIdenticalAcrossKernelBackends) {
  LabeledDatabase labeled = MakeMicroarrayLike(5);
  ColossalMinerOptions options;
  options.min_support_count = 30;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 40;
  options.seed = 19;

  SetBitvectorForceScalar(true);
  StatusOr<ColossalMiningResult> scalar = MineColossal(labeled.db, options);
  SetBitvectorForceScalar(false);
  ASSERT_TRUE(scalar.ok());

  StatusOr<ColossalMiningResult> dispatched =
      MineColossal(labeled.db, options);
  ASSERT_TRUE(dispatched.ok());

  EXPECT_EQ(dispatched->initial_pool_size, scalar->initial_pool_size);
  EXPECT_EQ(dispatched->iterations, scalar->iterations);
  EXPECT_EQ(dispatched->converged, scalar->converged);
  ExpectSamePatterns(dispatched->patterns, scalar->patterns, 1);
}

// --- Golden output ---------------------------------------------------------
// The tests above compare a build only against itself (threads, kernels,
// shards), so none of them notices the answer drifting between
// commits. These pin the served payload (RenderPatternsPayload: every
// itemset and support, in result order) of fixed mines to fingerprints
// recorded before the columnar PatternPool replaced the vector-of-Pattern
// pool. A change that means to alter the output must re-record them and
// say why.

struct GoldenPayload {
  uint64_t fnv = 0;
  size_t bytes = 0;
};

GoldenPayload Fingerprint(StatusOr<ColossalMiningResult> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  MiningResponse response;
  response.result =
      std::make_shared<const ColossalMiningResult>(*std::move(result));
  const std::string payload = RenderPatternsPayload(response);
  return {HashBytes(payload.data(), payload.size()), payload.size()};
}

void ExpectGolden(const GoldenPayload& actual, const GoldenPayload& expected,
                  const std::string& name, int threads) {
  char actual_hex[32];
  std::snprintf(actual_hex, sizeof(actual_hex), "0x%016llx",
                static_cast<unsigned long long>(actual.fnv));
  EXPECT_EQ(actual.fnv, expected.fnv)
      << name << " threads=" << threads << " payload fnv " << actual_hex;
  EXPECT_EQ(actual.bytes, expected.bytes)
      << name << " threads=" << threads;
}

ColossalMinerOptions GoldenOptions(int64_t min_support, int pool_size) {
  ColossalMinerOptions options;
  options.min_support_count = min_support;
  options.initial_pool_max_size = pool_size;
  options.tau = 0.5;
  options.k = 100;
  return options;
}

TEST(GoldenOutputTest, MicroarrayMine) {
  LabeledDatabase labeled = MakeMicroarrayLike(1);
  for (int threads : {1, 4}) {
    ColossalMinerOptions options = GoldenOptions(30, 2);
    options.num_threads = threads;
    ExpectGolden(Fingerprint(MineColossal(labeled.db, options)),
                 {0x827abb55a07ea832ULL, 9607}, "microarray", threads);
  }
}

TEST(GoldenOutputTest, TraceMineUnshardedAndAsFourShardManifest) {
  LabeledDatabase labeled = MakeProgramTraceLike(1);
  ShardPlanOptions plan_options;
  plan_options.num_shards = 4;
  StatusOr<std::vector<ShardRange>> plan = PlanShards(labeled.db, plan_options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  StatusOr<ShardWriteResult> written = WriteShardedSnapshots(
      labeled.db, *plan, ::testing::TempDir(), "golden_trace_x4");
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile(written->manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const ShardLoader disk_loader =
      [](const std::string& path,
         int64_t /*estimated_bytes*/) -> StatusOr<LoadedShard> {
    StatusOr<TransactionDatabase> db = ReadSnapshotFile(path);
    if (!db.ok()) return db.status();
    LoadedShard shard;
    shard.fingerprint = FingerprintDatabase(*db);
    shard.db = std::make_shared<const TransactionDatabase>(*std::move(db));
    return shard;
  };

  const GoldenPayload golden = {0x08ee424be910779aULL, 9693};
  for (int threads : {1, 4}) {
    ColossalMinerOptions options = GoldenOptions(1, 3);
    options.sigma = 0.03;
    options.num_threads = threads;
    ExpectGolden(Fingerprint(MineColossal(labeled.db, options)), golden,
                 "trace", threads);
    ShardedMiner miner(*manifest, disk_loader);
    ExpectGolden(Fingerprint(miner.Mine(options, ShardMergeMode::kExact)),
                 golden, "trace x4 shards", threads);
  }
}

TEST(GoldenOutputTest, DiagPlusMinePlainAndConstrained) {
  LabeledDatabase labeled = MakeDiagPlus(40, 20);
  struct Case {
    const char* name;
    MiningConstraints constraints;
    GoldenPayload golden;
  };
  MiningConstraints max_len;
  max_len.max_len = 25;
  MiningConstraints exclude;
  exclude.exclude = {0, 3, 5};
  const Case cases[] = {
      {"diagplus", MiningConstraints(), {0x65aa23a7aac6b9e4ULL, 5501}},
      {"diagplus --max-len 25", max_len, {0xb81e082a6e517f97ULL, 6660}},
      {"diagplus --exclude 0,3,5", exclude, {0x937220adbbbc8668ULL, 5388}},
  };
  for (const Case& golden_case : cases) {
    for (int threads : {1, 4}) {
      ColossalMinerOptions options = GoldenOptions(20, 2);
      options.constraints = golden_case.constraints;
      options.num_threads = threads;
      ExpectGolden(Fingerprint(MineColossal(labeled.db, options)),
                   golden_case.golden, golden_case.name, threads);
    }
  }
}

}  // namespace
}  // namespace colossal
