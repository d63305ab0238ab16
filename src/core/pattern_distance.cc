#include "core/pattern_distance.h"

#include "common/bitvector_kernels.h"
#include "common/check.h"

namespace colossal {

namespace {
// Tolerance for boundary membership in ball queries. Theorem 2's bound is
// attained exactly on adversarial inputs (e.g., Diag_n), and the distance
// is a ratio of small integers, so a tiny epsilon keeps those cases in.
constexpr double kBallEpsilon = 1e-9;
}  // namespace

double PatternDistance(const Pattern& a, const Pattern& b) {
  return Bitvector::JaccardDistance(a.support_set, b.support_set);
}

double BallRadius(double tau) {
  COLOSSAL_CHECK(tau > 0.0 && tau <= 1.0) << "tau=" << tau;
  return 1.0 - 1.0 / (2.0 / tau - 1.0);
}

bool WithinBall(int64_t common, int64_t a_support, int64_t b_support,
                double radius) {
  const int64_t united = a_support + b_support - common;
  const double distance =
      united == 0 ? 0.0
                  : 1.0 - static_cast<double>(common) /
                              static_cast<double>(united);
  return distance <= radius + kBallEpsilon;
}

std::vector<int64_t> BallQuery(const std::vector<Pattern>& pool,
                               const Pattern& center, double radius) {
  std::vector<int64_t> members;
  for (size_t i = 0; i < pool.size(); ++i) {
    const int64_t common =
        Bitvector::AndCount(pool[i].support_set, center.support_set);
    if (WithinBall(common, pool[i].support, center.support, radius)) {
      members.push_back(static_cast<int64_t>(i));
    }
  }
  return members;
}

std::vector<int64_t> BallQuery(const PatternPool& pool, const uint64_t* center,
                               int64_t center_support, double radius) {
  std::vector<int64_t> members;
  BallQuery(pool, center, center_support, radius, &members);
  return members;
}

void BallQuery(const PatternPool& pool, const uint64_t* center,
               int64_t center_support, double radius,
               std::vector<int64_t>* members) {
  const auto and_count = ActiveBitvectorKernels().and_count_words;
  const int64_t words = pool.words_per_row();
  members->clear();
  for (int64_t i = 0; i < pool.size(); ++i) {
    const int64_t common = and_count(pool.row(i), center, words);
    if (WithinBall(common, pool.support(i), center_support, radius)) {
      members->push_back(i);
    }
  }
}

}  // namespace colossal
