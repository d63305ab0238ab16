#ifndef COLOSSAL_MINING_APRIORI_H_
#define COLOSSAL_MINING_APRIORI_H_

#include <functional>

#include "common/status.h"
#include "core/pattern_pool.h"
#include "data/transaction_database.h"
#include "mining/miner.h"

namespace colossal {

// Breadth-first (level-wise) complete frequent-itemset miner in the style
// of Agrawal & Srikant's Apriori [VLDB'94], the first baseline family the
// paper discusses. Candidates of size k are generated by joining frequent
// (k−1)-itemsets sharing a (k−2)-prefix and pruned by the downward-closure
// property before support counting.
//
// In this library its main job is mining Pattern-Fusion *initial pools*:
// with max_pattern_size ∈ {2, 3} it enumerates the complete bounded answer
// in milliseconds even on the microarray stand-in. It is also one leg of
// the miner cross-check tests.
//
// Each counted candidate costs one search node against options.max_nodes.
StatusOr<MiningResult> MineApriori(const TransactionDatabase& db,
                                   const MinerOptions& options);

// The level store behind MineApriori, the initial pool and the sharded
// miner. Level k is a PatternPool of the frequent k-itemsets in
// lexicographic order with their support sets, so the levels in order
// are the (size, lexicographic) pool order. Each survivor's row is
// written once, as the AND of its two join parents' rows. `visit` gets
// each completed level, in order, once the next join no longer reads
// it, and may keep it; the miner holds at most two levels. A tripped
// node budget drops the level being joined.
StatusOr<MinerStats> MineAprioriLevels(
    const TransactionDatabase& db, const MinerOptions& options,
    const std::function<void(PatternPool level)>& visit);

}  // namespace colossal

#endif  // COLOSSAL_MINING_APRIORI_H_
