#ifndef COLOSSAL_SEQEXT_SEQUENCE_FUSION_H_
#define COLOSSAL_SEQEXT_SEQUENCE_FUSION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "seqext/sequence_miner.h"

namespace colossal {

// Pattern-Fusion transplanted to sequence data — the demonstration of
// the paper's closing claim that the core-pattern methodology carries to
// richer pattern languages. The transplant changes exactly two pieces:
//
//   * pattern union becomes shortest common supersequence (the smallest
//     sequence both fused members are subsequences of);
//   * support sets are computed by subsequence containment.
//
// Everything else — the support-set metric (Definition 6), the ball
// radius r(τ) (Theorem 2), the τ-core fusion invariant, the iterate-
// until-K loop (Algorithms 1–2) — is reused verbatim, because those
// results only depend on support sets, not on what patterns are.

struct SequenceFusionOptions {
  int64_t min_support_count = 1;
  double tau = 0.5;
  int k = 50;
  int max_iterations = 30;
  int fusion_attempts_per_seed = 2;
  uint64_t seed = 1;
};

struct SequenceFusionResult {
  // Longest first.
  std::vector<SequencePattern> patterns;
  int iterations = 0;
  bool converged = false;
};

// Runs iterative sequence fusion from an initial pool of frequent
// sequence patterns (mine one with MineFrequentSequences, bounded
// length). Each pattern's `support` must equal its support set's
// Count(): the ball test (WithinBall) reads union sizes from it. Fails
// on invalid options or an empty pool.
StatusOr<SequenceFusionResult> RunSequenceFusion(
    const SequenceDatabase& db, std::vector<SequencePattern> initial_pool,
    const SequenceFusionOptions& options);

}  // namespace colossal

#endif  // COLOSSAL_SEQEXT_SEQUENCE_FUSION_H_
