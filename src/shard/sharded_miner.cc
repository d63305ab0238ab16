#include "shard/sharded_miner.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/bitvector_kernels.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/pattern_pool.h"
#include "data/snapshot_io.h"
#include "mining/apriori.h"
#include "mining/miner.h"

namespace colossal {

namespace {

// CAS-max a finished arena's high-water mark into the residency
// options' stat sink (when one is wired).
void RecordArenaPeak(std::atomic<int64_t>* sink, const Arena& arena) {
  if (sink != nullptr) RaiseArenaPeak(*sink, arena.high_water_bytes());
}

// Whether `path` starts with the snapshot magic (one 8-byte read — the
// byte-estimate below must know which on-disk layout it is bounding).
bool HasSnapshotMagic(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char magic[8];
  const size_t bytes_read = std::fread(magic, 1, sizeof(magic), file);
  std::fclose(file);
  return bytes_read == sizeof(magic) &&
         LooksLikeSnapshot(std::string(magic, sizeof(magic)));
}

}  // namespace

StatusOr<ShardMergeMode> ParseShardMergeMode(const std::string& name) {
  if (name == "exact") return ShardMergeMode::kExact;
  if (name == "fuse") {
    return Status::InvalidArgument(
        "--shards fuse was removed (it lost to exact on speed and answer "
        "size); use --shards exact");
  }
  return Status::InvalidArgument("unknown shard merge mode '" + name +
                                 "' (want exact)");
}

// An itemset X with global support >= s satisfies, in at least one
// shard i, sup_i(X) >= s·|D_i|/|D| (real-valued: were sup_i(X) strictly
// below that bound in every shard, summing over shards would put the
// global support strictly below s). Any integer >= s·|D_i|/|D| is also
// >= max(1, ⌊s·|D_i|/|D|⌋) — the floor must NOT be tightened to a
// ceiling, which would violate the bound exactly at integer boundaries.
// The multiply is the overflow hazard: min_support and shard_rows are
// each bounded by |D|, so their product can pass INT64_MAX long before
// either operand does — hence the 128-bit intermediate (the quotient is
// <= min_support, so the cast back is always in range).
int64_t ShardLocalMinSupport(int64_t min_support, int64_t shard_rows,
                             int64_t total_rows) {
  const int64_t scaled = static_cast<int64_t>(
      static_cast<__int128>(min_support) * shard_rows / total_rows);
  return scaled < 1 ? 1 : scaled;
}

int64_t EstimateShardResidentBytes(const ShardInfo& info, int64_t num_items) {
  // Manifest row/item counts are caller-supplied (any int64 passes
  // manifest validation), so all arithmetic runs in 128 bits and
  // saturates: a hostile manifest must yield a huge-but-valid estimate
  // — which admission handles like any over-budget dataset — never a
  // negative one (and never an abort downstream).
  const auto saturate = [](__int128 value) {
    const __int128 max64 = std::numeric_limits<int64_t>::max();
    if (value > max64) return std::numeric_limits<int64_t>::max();
    if (value < 0) return int64_t{0};
    return static_cast<int64_t>(value);
  };
  const __int128 rows = info.rows();
  const __int128 items = num_items;
  // Container overhead the snapshot encoding does not pay: one Itemset
  // header per row, one Bitvector header per item, plus struct slack.
  const __int128 overhead = rows * static_cast<int64_t>(sizeof(Itemset)) +
                            items * static_cast<int64_t>(sizeof(Bitvector)) +
                            4096;
  struct stat file_info;
  if (::stat(info.path.c_str(), &file_info) == 0) {
    const __int128 file_bytes = file_info.st_size;
    if (HasSnapshotMagic(info.path)) {
      // Snapshot shards store rows and tidsets near their in-memory
      // layout, so file size plus overhead over-estimates.
      return saturate(file_bytes + overhead);
    }
    // Text shard (FIMI/matrix — nothing forces hand-authored manifests
    // to reference snapshots): every occurrence costs >= 2 bytes of
    // text vs 4 in memory, so the row store is <= 2x the file size; the
    // vertical index (one rows-bit tidset per item) exists only in
    // memory and is added in full.
    return saturate(2 * file_bytes + items * ((rows + 7) / 8) + overhead);
  }
  // Unreachable file: bound by the row store's worst case within the
  // item domain plus the vertical index (rows bits per item).
  return saturate(rows * ((items + 7) / 8) + items * ((rows + 7) / 8) +
                  overhead);
}

int64_t EstimateShardArenaBytes(const ShardInfo& info, int64_t num_items) {
  const auto saturate = [](__int128 value) {
    const __int128 max64 = std::numeric_limits<int64_t>::max();
    if (value > max64) return std::numeric_limits<int64_t>::max();
    if (value < 0) return int64_t{0};
    return static_cast<int64_t>(value);
  };
  const __int128 rows = info.rows();
  const __int128 items = num_items;
  // One rows-bit tidset per item of live candidate scratch, plus one
  // default chunk so tiny shards still charge the arena's floor.
  return saturate(items * ((rows + 7) / 8) + Arena::kDefaultChunkBytes);
}

int MaxConcurrentResidentShards(const std::vector<int64_t>& estimated_bytes,
                                int64_t budget_bytes) {
  const int count = static_cast<int>(estimated_bytes.size());
  if (budget_bytes <= 0 || count <= 1) return count < 1 ? 1 : count;
  // Admission must hold for *any* concurrently resident subset the
  // scheduler might produce, so the governor sums the largest k
  // estimates: the largest k that still fits is the answer.
  std::vector<int64_t> sorted = estimated_bytes;
  std::sort(sorted.begin(), sorted.end(),
            [](int64_t a, int64_t b) { return a > b; });
  int admitted = 0;
  int64_t total = 0;
  // total <= budget_bytes always holds, so the subtraction form cannot
  // overflow even on saturated INT64_MAX estimates.
  while (admitted < count && sorted[admitted] <= budget_bytes - total) {
    total += sorted[admitted];
    ++admitted;
  }
  return admitted < 1 ? 1 : admitted;
}

ShardedMiner::ShardedMiner(ShardManifest manifest, ShardLoader loader,
                           ShardResidencyOptions residency)
    : manifest_(std::move(manifest)),
      loader_(std::move(loader)),
      residency_(residency) {}

int ShardedMiner::ResolveFanOut(const ColossalMinerOptions& options,
                                const std::vector<int64_t>& estimates) const {
  // Auto (0) without a residency budget stays sequential: sharding
  // exists so datasets larger than memory mine within a bound, and a
  // default-constructed miner has no information to bound concurrent
  // residency with — wide fan-out is opt-in there, either via an
  // explicit shard_parallelism (the caller takes responsibility) or by
  // supplying the budget the governor needs (the service always does).
  if (options.shard_parallelism == 0 && residency_.budget_bytes <= 0) {
    return 1;
  }
  const int num_shards = static_cast<int>(manifest_.shards.size());
  int fan_out = options.shard_parallelism > 0
                    ? options.shard_parallelism
                    : ParallelPolicy{0}.ResolvedThreads();
  if (fan_out > num_shards) fan_out = num_shards;
  if (residency_.budget_bytes > 0 && fan_out > 1) {
    const int admitted =
        MaxConcurrentResidentShards(estimates, residency_.budget_bytes);
    if (fan_out > admitted) fan_out = admitted;
  }
  return fan_out < 1 ? 1 : fan_out;
}

StatusOr<LoadedShard> ShardedMiner::LoadShard(size_t index,
                                              int64_t estimated_bytes) const {
  const ShardInfo& info = manifest_.shards[index];
  StatusOr<LoadedShard> shard = loader_(info.path, estimated_bytes);
  if (!shard.ok()) {
    return Status(shard.status().code(), "shard " + std::to_string(index) +
                                             " (" + info.path + "): " +
                                             shard.status().message());
  }
  if (shard->db == nullptr) {
    return Status::Internal("shard loader returned no database");
  }
  if (shard->db->num_transactions() != info.rows()) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(index) + " (" + info.path + ") holds " +
        std::to_string(shard->db->num_transactions()) +
        " transactions, manifest declares " + std::to_string(info.rows()));
  }
  if (shard->fingerprint != info.fingerprint) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(index) + " (" + info.path +
        ") fingerprint mismatch vs manifest (shard file rewritten or "
        "swapped?)");
  }
  if (static_cast<int64_t>(shard->db->num_items()) > manifest_.num_items) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(index) + " (" + info.path +
        ") uses item ids beyond the parent's domain");
  }
  return shard;
}

StatusOr<ColossalMiningResult> ShardedMiner::Mine(
    const ColossalMinerOptions& options, ShardMergeMode /*mode*/,
    Arena* arena) const {
  const int64_t total_rows = manifest_.num_transactions;
  StatusOr<ColossalMinerOptions> canonical =
      CanonicalizeMinerOptionsForSize(total_rows, options);
  if (!canonical.ok()) return canonical.status();
  const int64_t min_support = canonical->min_support_count;
  if (min_support > total_rows) {
    return Status::InvalidArgument(
        "min_support_count out of range: " + std::to_string(min_support));
  }
  // Mirrors BuildInitialPool's check; without it, 0 would mean
  // "unbounded" to the per-shard complete miners — the explosion the
  // bounded pool exists to avoid.
  if (canonical->initial_pool_max_size < 1) {
    return Status::InvalidArgument("max_pattern_size must be >= 1");
  }

  // Phase 1 — per-shard mining, fanned out across a bounded pool of
  // shard jobs. ResolveFanOut caps concurrency so the concurrently
  // resident shards always fit the registry budget (at fan-out 1 this
  // is exactly the old sequential walk: at most one shard resident
  // beyond the registry's choices). Each job's result lands in its
  // shard's slot; merging then walks slots in manifest order with
  // first-appearance dedup, so the candidate list — and everything
  // downstream — is byte-identical to the sequential walk regardless of
  // completion order.
  // The phase-1 wall clock (kPoolMine) covers estimation, the fan-out
  // and the candidate merge; loader-side registry/admission time is
  // attributed to kRegistry by the loader itself and overlaps this span
  // when the fan-out is parallel.
  PhaseTimer pool_timer(residency_.trace, TracePhase::kPoolMine);
  const size_t num_shards = manifest_.shards.size();
  // One estimate per shard (one stat each), shared by the governor and
  // every load below so both reason from the same numbers. Each shard
  // is charged for its resident bytes plus its mining-arena scratch, so
  // admission reserves what a shard job actually holds while mining.
  std::vector<int64_t> estimates;
  estimates.reserve(num_shards);
  for (const ShardInfo& info : manifest_.shards) {
    const int64_t resident =
        EstimateShardResidentBytes(info, manifest_.num_items);
    const int64_t scratch = EstimateShardArenaBytes(info, manifest_.num_items);
    estimates.push_back(resident > std::numeric_limits<int64_t>::max() - scratch
                            ? std::numeric_limits<int64_t>::max()
                            : resident + scratch);
  }
  const int fan_out = ResolveFanOut(options, estimates);
  auto mine_shard = [&](int64_t index) -> StatusOr<std::vector<Itemset>> {
    const size_t i = static_cast<size_t>(index);
    StatusOr<LoadedShard> shard = LoadShard(i, estimates[i]);
    if (!shard.ok()) return shard.status();
    const int64_t local_min = ShardLocalMinSupport(
        min_support, manifest_.shards[i].rows(), total_rows);

    // One arena per shard job: all of this mine's tidset temporaries
    // free together when the job ends, and concurrent jobs never
    // contend on each other's allocator. Only the itemsets escape, so
    // nothing outlives the arena.
    Arena shard_arena;
    // The complete bounded-size miner at the Partition-scaled threshold:
    // the union over shards is a superset of the global initial pool.
    MinerOptions miner_options;
    miner_options.min_support_count = local_min;
    miner_options.max_pattern_size = canonical->initial_pool_max_size;
    miner_options.num_threads = options.num_threads;
    miner_options.arena = &shard_arena;
    // Constraint pushdown reaches each shard's complete miner: excluded
    // vocabulary never materializes a per-shard Bitvector, exactly as in
    // the unsharded BuildInitialPool path.
    miner_options.constraints = canonical->constraints;
    std::vector<Itemset> mined_items;
    StatusOr<MinerStats> mined =
        MineAprioriLevels(*shard->db, miner_options, [&](PatternPool level) {
          for (int64_t i = 0; i < level.size(); ++i) {
            const std::span<const ItemId> items = level.items(i);
            mined_items.push_back(
                Itemset::FromSorted({items.begin(), items.end()}));
          }
        });
    if (!mined.ok()) return mined.status();
    RecordArenaPeak(residency_.arena_peak_bytes, shard_arena);
    return mined_items;
  };
  // The pool order is fixed before any support set exists: each shard
  // emits (size, lexicographic) order, which a union merge keeps, so the
  // exact pool is positionally identical to BuildInitialPatternPool's
  // once phase 3 drops the infrequent rows in place.
  const auto size_lex = [](const Itemset& a, const Itemset& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  };
  std::vector<Itemset> candidates;
  auto merge_candidates = [&](std::vector<Itemset>& mined_items) {
    std::vector<Itemset> merged;
    merged.reserve(candidates.size() + mined_items.size());
    std::set_union(std::make_move_iterator(candidates.begin()),
                   std::make_move_iterator(candidates.end()),
                   std::make_move_iterator(mined_items.begin()),
                   std::make_move_iterator(mined_items.end()),
                   std::back_inserter(merged), size_lex);
    candidates = std::move(merged);
    mined_items.clear();
  };
  if (fan_out > 1 && num_shards > 1) {
    // A dedicated pool sized to the admitted width: each driver holds
    // at most one shard resident at a time, so concurrent residency is
    // bounded by fan_out even before the loader's own admission
    // control. Results land in per-index slots; the merge below walks
    // them in manifest order (lowest-index failure wins, matching the
    // status the sequential walk would have returned). Fail-fast with
    // the same contract: once shard f has failed, shards *above* f are
    // skipped — exactly the shards a sequential walk would never have
    // reached — while shards below f still mine, so the reported
    // failure is the true lowest-index one, not a scheduling accident.
    std::vector<StatusOr<std::vector<Itemset>>> per_shard(
        num_shards, StatusOr<std::vector<Itemset>>(std::vector<Itemset>{}));
    std::atomic<int64_t> first_failure{
        std::numeric_limits<int64_t>::max()};
    ThreadPool shard_pool(fan_out);
    shard_pool.ParallelFor(static_cast<int64_t>(num_shards), [&](int64_t i) {
      if (i > first_failure.load(std::memory_order_acquire)) {
        // Never read: the merge stops at the lower failing index.
        per_shard[static_cast<size_t>(i)] =
            Status::Internal("shard skipped after an earlier shard failed");
        return;
      }
      per_shard[static_cast<size_t>(i)] = mine_shard(i);
      if (!per_shard[static_cast<size_t>(i)].ok()) {
        int64_t lowest = first_failure.load(std::memory_order_relaxed);
        while (i < lowest && !first_failure.compare_exchange_weak(
                                 lowest, i, std::memory_order_release)) {
        }
      }
    });
    for (size_t i = 0; i < num_shards; ++i) {
      if (!per_shard[i].ok()) return per_shard[i].status();
      merge_candidates(*per_shard[i]);
    }
  } else {
    // Sequential walk: merge each shard's output as it arrives — the
    // governor picks fan-out 1 exactly when shards are large relative
    // to the budget, so never buffer more than one shard's pre-dedup
    // list — and stop at the first failure, like before.
    for (size_t i = 0; i < num_shards; ++i) {
      StatusOr<std::vector<Itemset>> mined =
          mine_shard(static_cast<int64_t>(i));
      if (!mined.ok()) return mined.status();
      merge_candidates(*mined);
    }
  }
  pool_timer.Stop();
  if (candidates.empty()) {
    return Status::FailedPrecondition(
        "no frequent patterns at min_support_count " +
        std::to_string(min_support));
  }

  // The stitch span (kStitch) covers the re-count pass and the
  // compaction that rebuild the global pool (phases 2 and 3).
  PhaseTimer stitch_timer(residency_.trace, TracePhase::kStitch);

  // The pool, one zeroed row per candidate, is the only copy of the
  // candidates from here on; on the request arena, it flows straight
  // into fusion.
  PatternPool pool(total_rows, static_cast<int64_t>(candidates.size()), arena);
  for (const Itemset& items : candidates) pool.AppendRow(items.items());
  std::vector<Itemset>().swap(candidates);

  // Phase 2 — re-count: stitch each candidate's per-shard support sets
  // into its row, the exact global support set. Shards are again
  // visited one at a time; rows shard across workers (each writes only
  // its own row, so the result is thread-count invariant), and each
  // worker writes a candidate's shard-local set into one reused scratch
  // row.
  const BitvectorKernels& kernels = ActiveBitvectorKernels();
  const int num_threads =
      ParallelPolicy{options.num_threads}.ResolvedThreads();
  std::unique_ptr<ThreadPool> workers;
  if (num_threads > 1 && pool.size() > 1) {
    workers = std::make_unique<ThreadPool>(num_threads);
  }
  for (size_t i = 0; i < manifest_.shards.size(); ++i) {
    StatusOr<LoadedShard> shard = LoadShard(i, estimates[i]);
    if (!shard.ok()) return shard.status();
    const TransactionDatabase& shard_db = *shard->db;
    const int64_t offset = manifest_.shards[i].row_begin;
    COLOSSAL_CHECK(offset >= 0 &&
                   offset + shard_db.num_transactions() <= total_rows)
        << "shard " << i << " rows fall outside the manifest";
    const int64_t local_words =
        Bitvector::WordsFor(shard_db.num_transactions());
    ParallelFor(workers.get(), pool.size(), [&](int64_t c) {
      const std::span<const ItemId> items = pool.items(c);
      // An item outside the shard's dense domain occurs in none of its
      // rows: the candidate's shard-local set is empty, and ORing it
      // changes nothing.
      if (items.back() >= shard_db.num_items()) return;
      thread_local std::vector<uint64_t> local;
      local.resize(static_cast<size_t>(local_words));
      shard_db.WriteSupportSet(items, local.data());
      kernels.or_shifted_words(pool.mutable_row(c), local.data(),
                               local_words, offset / 64,
                               static_cast<int>(offset % 64));
    });
  }

  // Phase 3 — keep the globally frequent candidates, compacting the
  // matrix in place (the survivors keep their sorted order).
  for (int64_t c = 0; c < pool.size(); ++c) {
    pool.set_support(c, kernels.popcount_words(pool.row(c),
                                               pool.words_per_row()));
  }
  pool.RemoveRowsBelowSupport(min_support);
  if (pool.empty()) {
    return Status::FailedPrecondition(
        "no globally frequent patterns at min_support_count " +
        std::to_string(min_support));
  }
  stitch_timer.Stop();

  // Phase 4 — the shared fusion pipeline. The pool is the global
  // initial pool, so the result is byte-identical to unsharded
  // MineColossal.
  ColossalMinerOptions exec = *canonical;
  exec.num_threads = options.num_threads;
  PhaseTimer fusion_timer(residency_.trace, TracePhase::kFusion);
  return FuseColossalFromPool(total_rows, std::move(pool), exec, arena);
}

}  // namespace colossal
