#include "core/pattern_fusion.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "common/bitvector_kernels.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pattern_distance.h"
#include "mining/apriori.h"

namespace colossal {

namespace {

Status ValidateOptions(int64_t num_transactions,
                       const PatternFusionOptions& options) {
  if (options.min_support_count < 1 ||
      options.min_support_count > num_transactions) {
    return Status::InvalidArgument(
        "min_support_count out of range: " +
        std::to_string(options.min_support_count));
  }
  if (!(options.tau > 0.0 && options.tau <= 1.0)) {
    return Status::InvalidArgument("tau must be in (0, 1]");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (options.fusion_attempts_per_seed < 1) {
    return Status::InvalidArgument("fusion_attempts_per_seed must be >= 1");
  }
  if (options.max_superpatterns_per_seed < 1) {
    return Status::InvalidArgument("max_superpatterns_per_seed must be >= 1");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0 (0 = auto)");
  }
  if (options.max_pattern_items < 0) {
    return Status::InvalidArgument(
        "max_pattern_items must be >= 0 (0 = unbounded)");
  }
  return Status::Ok();
}

// Keeps at most `cap` candidates, sampling without replacement with
// probability proportional to merged_count — the paper's heuristic that
// "βi with a larger core pattern set would retain with higher
// probability".
std::vector<FusionCandidate> SampleByWeight(
    std::vector<FusionCandidate> candidates, int cap, Rng& rng) {
  if (static_cast<int>(candidates.size()) <= cap) return candidates;
  std::vector<FusionCandidate> kept;
  kept.reserve(static_cast<size_t>(cap));
  std::vector<double> weights;
  weights.reserve(candidates.size());
  for (const FusionCandidate& candidate : candidates) {
    weights.push_back(static_cast<double>(candidate.merged_count));
  }
  for (int round = 0; round < cap; ++round) {
    const int64_t pick = rng.WeightedIndex(weights);
    kept.push_back(std::move(candidates[static_cast<size_t>(pick)]));
    weights[static_cast<size_t>(pick)] = 0.0;
  }
  return kept;
}

// The running fusion's itemset as a bitmap over item ids, so testing a
// ball member's items costs one probe each instead of a sorted-list
// scan of the (often colossal) fused itemset. Sized from the largest id
// set so far; ids past the end read as absent.
class ItemBitmap {
 public:
  explicit ItemBitmap(std::span<const ItemId> items) { SetAll(items); }

  bool Test(ItemId item) const {
    const size_t word = item / 64;
    return word < words_.size() && ((words_[word] >> (item % 64)) & 1) != 0;
  }

  // |items ∩ R| by bit probes. When only "is it absorbed?" matters
  // (`stop_at_miss`), the count stops at the first miss.
  int CountShared(std::span<const ItemId> items, bool stop_at_miss) const {
    int shared = 0;
    for (ItemId item : items) {
      if (Test(item)) {
        ++shared;
      } else if (stop_at_miss) {
        break;
      }
    }
    return shared;
  }

  void SetAll(std::span<const ItemId> items) {
    if (items.empty()) return;
    const size_t needed = static_cast<size_t>(items.back()) / 64 + 1;
    if (words_.size() < needed) words_.resize(needed, 0);
    for (ItemId item : items) words_[item / 64] |= uint64_t{1} << (item % 64);
  }

 private:
  std::vector<uint64_t> words_;
};

// FuseOnce over a pool counts the intersection before it probes items
// when a row is at most this many words. Placed by BM_FuseOnce and
// BM_FuseOnceShuffledPool: counting first wins on the 1-word microarray
// stand-in, the orders tie on a 2-word cut of the trace stand-in, and
// probing items first wins from 4 words up.
constexpr int64_t kCountFirstMaxWords = 2;

}  // namespace

FusionOutcome FuseOnce(const std::vector<Pattern>& pool,
                       const std::vector<int64_t>& ball_order,
                       int64_t seed_index, int64_t min_support_count,
                       double tau, int max_merges, Arena* arena,
                       int max_items) {
  const Pattern& seed = pool[static_cast<size_t>(seed_index)];
  FusionOutcome outcome;
  outcome.fused.items = seed.items;
  outcome.fused.support_set = Bitvector(seed.support_set, arena);
  outcome.fused.support = seed.support;
  outcome.merged_count = 1;

  // Invariant: every merged pattern β (including the seed) must be a
  // τ-core of the running fusion R, i.e. |D_R| ≥ τ·|D_β|. D_R only
  // shrinks, so it suffices to keep |D_R| ≥ τ·max merged support.
  int64_t max_merged_support = seed.support;
  ItemBitmap fused_items(seed.items.items());

  for (int64_t index : ball_order) {
    if (max_merges != 0 && outcome.merged_count >= max_merges) break;
    if (index == seed_index) continue;
    const Pattern& member = pool[static_cast<size_t>(index)];
    // Without an item bound only "is β already absorbed?" matters.
    const int shared_items =
        fused_items.CountShared(member.items.items(), max_items == 0);
    // Already absorbed; merging would change nothing.
    if (shared_items == member.size()) continue;
    // |R ∪ β| by inclusion–exclusion — rejected before any support-set
    // work, so an over-long merge costs no Bitvector traffic.
    if (max_items != 0 &&
        outcome.fused.size() + member.size() - shared_items > max_items) {
      continue;
    }
    // Popcount the would-be intersection first; the merged support set
    // is only materialized (in place) once the merge is accepted.
    const int64_t merged_support =
        Bitvector::AndCount(outcome.fused.support_set, member.support_set);
    if (merged_support < min_support_count) continue;
    const double needed =
        tau * static_cast<double>(
                  std::max(max_merged_support, member.support)) -
        1e-12;
    if (static_cast<double>(merged_support) < needed) continue;

    outcome.fused.items = Union(outcome.fused.items, member.items);
    fused_items.SetAll(member.items.items());
    outcome.fused.support_set.AndWith(member.support_set);
    outcome.fused.support = merged_support;
    max_merged_support = std::max(max_merged_support, member.support);
    ++outcome.merged_count;
  }
  return outcome;
}

FusionOutcome FuseOnce(const PatternPool& pool,
                       const std::vector<int64_t>& ball_order,
                       int64_t seed_index, int64_t min_support_count,
                       double tau, int max_merges, Arena* arena,
                       int max_items) {
  const BitvectorKernels& kernels = ActiveBitvectorKernels();
  const int64_t words = pool.words_per_row();
  const bool count_first = words <= kCountFirstMaxWords;
  const std::span<const ItemId> seed_items = pool.items(seed_index);

  FusionOutcome outcome;
  outcome.fused.support_set = Bitvector(pool.num_bits(), arena);
  uint64_t* fused_words = outcome.fused.support_set.mutable_words();
  if (words > 0) {
    std::memcpy(fused_words, pool.row(seed_index),
                static_cast<size_t>(words) * sizeof(uint64_t));
  }
  outcome.fused.support = pool.support(seed_index);
  outcome.merged_count = 1;

  // The same invariant as the vector form: |D_R| ≥ τ·max merged support.
  int64_t max_merged_support = pool.support(seed_index);
  std::vector<ItemId> fused_list(seed_items.begin(), seed_items.end());
  std::vector<ItemId> union_list;
  ItemBitmap fused_items(seed_items);
  const auto keeps_cores = [&](int64_t merged_support,
                               int64_t member_support) {
    if (merged_support < min_support_count) return false;
    const double needed =
        tau * static_cast<double>(
                  std::max(max_merged_support, member_support)) -
        1e-12;
    return static_cast<double>(merged_support) >= needed;
  };

  for (int64_t index : ball_order) {
    if (max_merges != 0 && outcome.merged_count >= max_merges) break;
    if (index == seed_index) continue;
    const uint64_t* member_row = pool.row(index);
    const int64_t member_support = pool.support(index);
    int64_t merged_support = 0;
    if (count_first) {
      merged_support = kernels.and_count_words(fused_words, member_row, words);
      if (!keeps_cores(merged_support, member_support)) continue;
    }
    const std::span<const ItemId> member_items = pool.items(index);
    const int64_t member_size = static_cast<int64_t>(member_items.size());
    const int shared_items =
        fused_items.CountShared(member_items, max_items == 0);
    if (shared_items == member_size) continue;
    if (max_items != 0 &&
        static_cast<int64_t>(fused_list.size()) + member_size - shared_items >
            max_items) {
      continue;
    }
    if (!count_first) {
      merged_support = kernels.and_count_words(fused_words, member_row, words);
      if (!keeps_cores(merged_support, member_support)) continue;
    }

    union_list.clear();
    std::set_union(fused_list.begin(), fused_list.end(), member_items.begin(),
                   member_items.end(), std::back_inserter(union_list));
    fused_list.swap(union_list);
    fused_items.SetAll(member_items);
    kernels.and_words(fused_words, member_row, words);
    outcome.fused.support = merged_support;
    max_merged_support = std::max(max_merged_support, member_support);
    ++outcome.merged_count;
  }
  outcome.fused.items = Itemset::FromSorted(std::move(fused_list));
  return outcome;
}

FusionEngine::FusionEngine(int64_t num_transactions,
                           const PatternFusionOptions& options)
    : num_transactions_(num_transactions), options_(options) {}

FusionEngine::FusionEngine(const TransactionDatabase& db,
                           const PatternFusionOptions& options)
    : FusionEngine(db.num_transactions(), options) {}

std::vector<FusionCandidate> FusionEngine::ProcessSeed(
    const PatternPool& pool, int64_t seed_index, int64_t min_support,
    double radius, Rng& rng) const {
  // A ball can hold the whole pool (all 42k rows on the microarray, a
  // 340 KB index list). Each thread keeps one buffer, sized once to the
  // pool, for all its seeds and iterations: a fresh vector per seed
  // allocated and freed hundreds of blocks that size per mine, and that
  // churn left the server's resident set depending on run timing.
  thread_local std::vector<int64_t> ball;
  ball.reserve(static_cast<size_t>(pool.size()));
  // A seed whose support leaves no pool row outside the ball gets the
  // scan's answer, 0..size()−1, without the scan.
  if (BallIsWholePool(pool.num_bits(), pool.support(seed_index), min_support,
                      radius)) {
    ball.resize(static_cast<size_t>(pool.size()));
    std::iota(ball.begin(), ball.end(), int64_t{0});
  } else {
    BallQuery(pool, pool.row(seed_index), pool.support(seed_index), radius,
              &ball);
  }

  // Fusion(α.CoreList): several shuffled greedy passes, each able to
  // reach a different super-pattern the ball's members are cores of.
  // The first pass saturates; later passes may stop at a random depth,
  // emitting the intermediate super-patterns the paper's subset-based
  // Fusion also generates.
  std::vector<FusionCandidate> candidates;
  for (int attempt = 0; attempt < options_.fusion_attempts_per_seed;
       ++attempt) {
    rng.Shuffle(ball);
    int max_merges = 0;
    if (options_.variable_merge_depth && attempt > 0) {
      max_merges = static_cast<int>(int64_t{2}
                                    << rng.UniformInt(0, 3));  // 2..16
    }
    FusionOutcome outcome =
        FuseOnce(pool, ball, seed_index,
                 options_.min_support_count, options_.tau, max_merges,
                 options_.arena, options_.max_pattern_items);
    bool duplicate = false;
    for (FusionCandidate& existing : candidates) {
      if (existing.pattern.items == outcome.fused.items) {
        existing.merged_count =
            std::max(existing.merged_count, outcome.merged_count);
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      candidates.push_back({std::move(outcome.fused), outcome.merged_count});
    }
  }
  return SampleByWeight(std::move(candidates),
                        options_.max_superpatterns_per_seed, rng);
}

StatusOr<PatternFusionResult> FusionEngine::Run(
    std::vector<Pattern> initial_pool) {
  StatusOr<PatternPool> pool = PatternPool::FromPatterns(
      num_transactions_, initial_pool, options_.arena);
  if (!pool.ok()) return pool.status();
  // The rows now live in the pool; free the patterns before fusing.
  std::vector<Pattern>().swap(initial_pool);
  return Run(std::move(*pool));
}

StatusOr<PatternFusionResult> FusionEngine::Run(PatternPool pool) {
  Status valid = ValidateOptions(num_transactions_, options_);
  if (!valid.ok()) return valid;
  if (pool.empty()) {
    return Status::InvalidArgument("initial pool is empty");
  }
  if (pool.num_bits() != num_transactions_) {
    return Status::InvalidArgument(
        "initial pool rows are " + std::to_string(pool.num_bits()) +
        " bits wide, want " + std::to_string(num_transactions_) +
        " transactions");
  }
  const auto popcount = ActiveBitvectorKernels().popcount_words;
  for (int64_t i = 0; i < pool.size(); ++i) {
    if (pool.support(i) < options_.min_support_count) {
      return Status::InvalidArgument(
          "initial pool pattern " + pool.ToPattern(i).items.ToString() +
          " is infrequent (support " + std::to_string(pool.support(i)) + ")");
    }
    // BallQuery takes each union size from the cached supports.
    if (pool.support(i) != popcount(pool.row(i), pool.words_per_row())) {
      return Status::InvalidArgument(
          "initial pool pattern " + pool.ToPattern(i).items.ToString() +
          " has a support set inconsistent with its support");
    }
  }

  const double radius = BallRadius(options_.tau);
  const int num_threads = ParallelPolicy{options_.num_threads}.ResolvedThreads();
  // Spawned lazily, on the first iteration that has seeds to shard — an
  // already-converged run never pays the thread spawn.
  std::unique_ptr<ThreadPool> workers;

  // The master rng drives only the coordinator-side seed draws; all
  // per-seed randomness comes from streams derived below, so the draw
  // sequence is independent of how seeds are scheduled onto workers.
  Rng master(options_.seed);

  PatternFusionResult result;
  int previous_min_size = pool.MinPatternSize();

  for (int iteration = 0; iteration < options_.max_iterations; ++iteration) {
    // Algorithm 1, line 4: stop once the pool fits the answer budget.
    if (pool.size() <= options_.k) {
      result.converged = true;
      break;
    }

    // Algorithm 2, lines 2–7: draw K seeds, then shard the per-seed work
    // (ball query + fusions + retention) across the pool of workers.
    const std::vector<int64_t> seeds = pool.DrawSeeds(options_.k, master);
    const int64_t min_support = pool.MinSupport();
    if (num_threads > 1 && workers == nullptr) {
      workers = std::make_unique<ThreadPool>(num_threads);
    }
    const uint64_t iteration_stream =
        Rng::MixSeed(options_.seed, static_cast<uint64_t>(iteration));
    std::vector<std::vector<FusionCandidate>> per_seed = ParallelMap(
        workers.get(), static_cast<int64_t>(seeds.size()), [&](int64_t slot) {
          Rng slot_rng(
              Rng::MixSeed(iteration_stream, static_cast<uint64_t>(slot)));
          return ProcessSeed(pool, seeds[static_cast<size_t>(slot)],
                             min_support, radius, slot_rng);
        });

    // Merge in slot order: pool dedup (first writer wins) then stays
    // deterministic for any thread count. The pool is sized to the
    // candidates that exist, never to the seeds × retain bound, which a
    // request may set arbitrarily high.
    int64_t num_candidates = 0;
    for (const std::vector<FusionCandidate>& candidates : per_seed) {
      num_candidates += static_cast<int64_t>(candidates.size());
    }
    PatternPool next_pool(num_transactions_, num_candidates, options_.arena);
    for (const std::vector<FusionCandidate>& candidates : per_seed) {
      for (const FusionCandidate& candidate : candidates) {
        next_pool.Add(candidate.pattern);
      }
    }

    COLOSSAL_CHECK(!next_pool.empty());
    // Lemma 5: fusion takes unions, so the smallest pattern size never
    // decreases across iterations.
    COLOSSAL_CHECK(next_pool.MinPatternSize() >= previous_min_size);
    previous_min_size = next_pool.MinPatternSize();

    pool = std::move(next_pool);
    result.iterations.push_back({pool.size(), pool.MinPatternSize(),
                                 pool.MaxPatternSize()});
  }
  if (pool.size() <= options_.k) result.converged = true;

  // Copies the final pool out through ToPattern, which always
  // heap-allocates, so the returned patterns are independent of any
  // options_.arena backing the intra-run pool used.
  std::vector<int64_t> order(static_cast<size_t>(pool.size()));
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(), [&pool](int64_t a, int64_t b) {
    if (pool.pattern_size(a) != pool.pattern_size(b)) {
      return pool.pattern_size(a) > pool.pattern_size(b);
    }
    const std::span<const ItemId> a_items = pool.items(a);
    const std::span<const ItemId> b_items = pool.items(b);
    return std::lexicographical_compare(a_items.begin(), a_items.end(),
                                        b_items.begin(), b_items.end());
  });
  result.patterns.reserve(order.size());
  for (int64_t i : order) result.patterns.push_back(pool.ToPattern(i));
  return result;
}

StatusOr<PatternFusionResult> RunPatternFusion(
    const TransactionDatabase& db, std::vector<Pattern> initial_pool,
    const PatternFusionOptions& options) {
  FusionEngine engine(db, options);
  return engine.Run(std::move(initial_pool));
}

StatusOr<PatternPool> BuildInitialPatternPool(
    const TransactionDatabase& db, int64_t min_support_count,
    int max_pattern_size, int num_threads, Arena* arena,
    const MiningConstraints& constraints) {
  if (max_pattern_size < 1) {
    return Status::InvalidArgument("max_pattern_size must be >= 1");
  }
  MinerOptions miner_options;
  miner_options.min_support_count = min_support_count;
  miner_options.max_pattern_size = max_pattern_size;
  miner_options.num_threads = num_threads;
  miner_options.arena = arena;
  miner_options.constraints = constraints;
  std::vector<PatternPool> levels;
  int64_t total = 0;
  StatusOr<MinerStats> mined =
      MineAprioriLevels(db, miner_options, [&](PatternPool level) {
        total += level.size();
        levels.push_back(std::move(level));
      });
  if (!mined.ok()) return mined.status();
  if (total == 0) {
    return Status::FailedPrecondition(
        "no frequent patterns at min_support_count " +
        std::to_string(min_support_count));
  }
  // The levels in order are the pool order: (size, lexicographic). The
  // fusion engine is pool-order-sensitive (seed draws index the pool);
  // the sharded miner's phase 3 sorts its stitched candidates into this
  // same order, which is what makes its pool positionally identical to
  // this one. Every support set is carried over from its level row.
  PatternPool pool(db.num_transactions(), total, arena);
  for (const PatternPool& level : levels) {
    for (int64_t i = 0; i < level.size(); ++i) {
      pool.AppendRow(level.items(i), level.row(i), level.support(i));
    }
  }
  return pool;
}

StatusOr<std::vector<Pattern>> BuildInitialPool(
    const TransactionDatabase& db, int64_t min_support_count,
    int max_pattern_size, PoolMiner /*miner*/, int num_threads, Arena* arena,
    const MiningConstraints& constraints) {
  StatusOr<PatternPool> pool =
      BuildInitialPatternPool(db, min_support_count, max_pattern_size,
                              num_threads, arena, constraints);
  if (!pool.ok()) return pool.status();
  std::vector<Pattern> patterns;
  patterns.reserve(static_cast<size_t>(pool->size()));
  for (int64_t i = 0; i < pool->size(); ++i) {
    patterns.push_back(pool->ToPattern(i));
  }
  return patterns;
}

}  // namespace colossal
