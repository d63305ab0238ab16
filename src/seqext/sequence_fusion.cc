#include "seqext/sequence_fusion.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "core/pattern_distance.h"

namespace colossal {

namespace {

// One greedy fusion pass over the ball in the given order: merge via
// shortest common supersequence while the merged pattern stays frequent
// and every merged member remains a τ-core of it.
SequencePattern FuseSequences(const SequenceDatabase& db,
                              const std::vector<SequencePattern>& pool,
                              const std::vector<int64_t>& ball_order,
                              int64_t seed_index, int64_t min_support_count,
                              double tau) {
  SequencePattern fused = pool[static_cast<size_t>(seed_index)];
  int64_t max_merged_support = fused.support;

  for (int64_t index : ball_order) {
    if (index == seed_index) continue;
    const SequencePattern& member = pool[static_cast<size_t>(index)];
    if (member.sequence.IsSubsequenceOf(fused.sequence)) continue;

    const Sequence merged =
        ShortestCommonSupersequence(fused.sequence, member.sequence);
    // Any sequence containing the SCS contains both parts, so the true
    // support set is inside the AND — scan only those candidates.
    Bitvector merged_set(db.num_sequences());
    const Bitvector candidates =
        Bitvector::And(fused.support_set, member.support_set);
    for (int64_t s : candidates.ToIndices()) {
      if (merged.IsSubsequenceOf(db.sequence(s))) merged_set.Set(s);
    }
    const int64_t merged_support = merged_set.Count();
    if (merged_support < min_support_count) continue;
    const double needed =
        tau * static_cast<double>(
                  std::max(max_merged_support, member.support)) -
        1e-12;
    if (static_cast<double>(merged_support) < needed) continue;

    fused.sequence = merged;
    fused.support_set = std::move(merged_set);
    fused.support = merged_support;
    max_merged_support = std::max(max_merged_support, member.support);
  }
  return fused;
}

}  // namespace

StatusOr<SequenceFusionResult> RunSequenceFusion(
    const SequenceDatabase& db, std::vector<SequencePattern> initial_pool,
    const SequenceFusionOptions& options) {
  if (options.min_support_count < 1 ||
      options.min_support_count > db.num_sequences()) {
    return Status::InvalidArgument("min_support_count out of range");
  }
  if (!(options.tau > 0.0 && options.tau <= 1.0)) {
    return Status::InvalidArgument("tau must be in (0, 1]");
  }
  if (options.k < 1 || options.max_iterations < 1 ||
      options.fusion_attempts_per_seed < 1) {
    return Status::InvalidArgument("k, iterations and attempts must be >= 1");
  }
  if (initial_pool.empty()) {
    return Status::InvalidArgument("initial pool is empty");
  }

  Rng rng(options.seed);
  const double radius = BallRadius(options.tau);

  std::vector<SequencePattern> pool = std::move(initial_pool);
  SequenceFusionResult result;

  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    if (static_cast<int64_t>(pool.size()) <= options.k) {
      result.converged = true;
      break;
    }
    const std::vector<int64_t> seeds = rng.SampleWithoutReplacement(
        static_cast<int64_t>(pool.size()), options.k);

    std::vector<SequencePattern> next_pool;
    std::unordered_set<Sequence, SequenceHash> dedup;
    for (int64_t seed_index : seeds) {
      const SequencePattern& seed = pool[static_cast<size_t>(seed_index)];
      std::vector<int64_t> ball;
      for (size_t i = 0; i < pool.size(); ++i) {
        const int64_t common =
            Bitvector::AndCount(pool[i].support_set, seed.support_set);
        if (WithinBall(common, pool[i].support, seed.support, radius)) {
          ball.push_back(static_cast<int64_t>(i));
        }
      }
      for (int attempt = 0; attempt < options.fusion_attempts_per_seed;
           ++attempt) {
        rng.Shuffle(ball);
        SequencePattern fused =
            FuseSequences(db, pool, ball, seed_index,
                          options.min_support_count, options.tau);
        if (dedup.insert(fused.sequence).second) {
          next_pool.push_back(std::move(fused));
        }
      }
    }
    pool = std::move(next_pool);
    ++result.iterations;
  }
  if (static_cast<int64_t>(pool.size()) <= options.k) {
    result.converged = true;
  }

  std::sort(pool.begin(), pool.end(),
            [](const SequencePattern& a, const SequencePattern& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.sequence < b.sequence;
            });
  result.patterns = std::move(pool);
  return result;
}

}  // namespace colossal
