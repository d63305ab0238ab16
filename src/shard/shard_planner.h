#ifndef COLOSSAL_SHARD_SHARD_PLANNER_H_
#define COLOSSAL_SHARD_SHARD_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/transaction_database.h"
#include "shard/shard_manifest.h"

namespace colossal {

// The shard planner: decides where to cut a TransactionDatabase into
// contiguous row-range shards and writes each shard as its own snapshot
// file plus the manifest that ties them back together. Shards are row
// ranges (never item ranges) so that every shard is itself a valid
// database whose tidsets are the parent's tidsets restricted to the
// range — which is what lets the sharded miner stitch per-shard support
// sets back into exact global ones.

struct ShardRange {
  int64_t begin = 0;
  int64_t end = 0;  // exclusive

  friend bool operator==(const ShardRange& a, const ShardRange& b) {
    return a.begin == b.begin && a.end == b.end;
  }
};

struct ShardPlanOptions {
  // Exactly one of the two knobs must be set:
  //   num_shards >= 1      — cut into this many near-equal row ranges;
  //   max_shard_bytes >= 1 — greedy-fill ranges so each shard's resident
  //                          estimate (row store + vertical index, the
  //                          same accounting as ApproxMemoryBytes) stays
  //                          under the budget.
  int num_shards = 0;
  int64_t max_shard_bytes = 0;
};

// Plans the row ranges. Fails when neither/both knobs are set or when
// num_shards exceeds the number of transactions.
StatusOr<std::vector<ShardRange>> PlanShards(const TransactionDatabase& db,
                                             const ShardPlanOptions& options);

struct ShardWriteResult {
  // The manifest as written (shard paths relative to the manifest dir).
  ShardManifest manifest;
  std::string manifest_path;
  std::vector<std::string> shard_paths;  // as written on disk
};

// Writes one snapshot file per range ("<name>.shard_NNNN.snap") plus
// "<name>.manifest" into `dir`, creating it (and any missing parents)
// first. The ranges must tile
// [0, db.num_transactions()) contiguously (PlanShards output does).
StatusOr<ShardWriteResult> WriteShardedSnapshots(
    const TransactionDatabase& db, const std::vector<ShardRange>& ranges,
    const std::string& dir, const std::string& name);

}  // namespace colossal

#endif  // COLOSSAL_SHARD_SHARD_PLANNER_H_
