#ifndef COLOSSAL_CORE_PATTERN_DISTANCE_H_
#define COLOSSAL_CORE_PATTERN_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "core/pattern.h"
#include "core/pattern_pool.h"

namespace colossal {

// The paper's pattern metric and the ball primitive built on it.

// Pattern distance (Definition 6):
//   Dist(α, β) = 1 − |D_α ∩ D_β| / |D_α ∪ D_β|,
// the Jaccard distance of the support sets. (S, Dist) is a metric space
// (Theorem 1); the triangle inequality is exercised as a property test.
double PatternDistance(const Pattern& a, const Pattern& b);

// The ball radius r(τ) = 1 − 1/(2/τ − 1) of Theorem 2: any two τ-core
// patterns of a common pattern are within r(τ) of each other, so a range
// query of this radius around a seed finds every other core pattern of
// the seed's (unknown) colossal ancestor that is present in the pool.
// Requires τ ∈ (0, 1].
double BallRadius(double tau);

// The ball-membership test on support counts: with common = |D_α ∩ D_β|
// and the two supports |D_α|, |D_β|, returns Dist(α, β) ≤ radius, where
// |D_α ∪ D_β| = |D_α| + |D_β| − common. Inclusive, with a small epsilon
// so boundary cases like Diag's exact-2/3 distances are kept. Disjoint
// sets sit at distance 1, two empty sets at 0.
bool WithinBall(int64_t common, int64_t a_support, int64_t b_support,
                double radius);

// Indices of every pool pattern within `radius` (≥ 0) of `center`, by
// WithinBall. The center itself, if present in the pool, is included.
// Precondition: every pattern's cached `support` equals
// `support_set.Count()` — each pair costs one AndCount, and the union
// size comes from the cached supports (FusionEngine::Run enforces this
// for its pool).
std::vector<int64_t> BallQuery(const std::vector<Pattern>& pool,
                               const Pattern& center, double radius);

// The same query over a columnar pool — the scan the fusion engine runs:
// one and_count_words call per row against `center`, a support set of
// pool.words_per_row() words whose popcount is `center_support`. Returns
// exactly what the vector form returns for the same patterns.
std::vector<int64_t> BallQuery(const PatternPool& pool, const uint64_t* center,
                               int64_t center_support, double radius);

// The same scan into `members`, which is cleared first and keeps its
// capacity, so a caller running many queries reuses one buffer.
void BallQuery(const PatternPool& pool, const uint64_t* center,
               int64_t center_support, double radius,
               std::vector<int64_t>* members);

}  // namespace colossal

#endif  // COLOSSAL_CORE_PATTERN_DISTANCE_H_
