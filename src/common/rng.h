#ifndef COLOSSAL_COMMON_RNG_H_
#define COLOSSAL_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace colossal {

// MT19937-64 with the seeding, recurrence, tempering and output of
// std::mt19937_64, so it is a drop-in UniformRandomBitGenerator: every
// raw draw, and every std:: distribution it drives, is bit-identical to
// the standard engine's (tests/rng_test.cc pins this). It differs only in
// its refill, which writes the twist's conditional xor with the matrix
// constant as a mask rather than a branch, so the compiler vectorizes it
// at the baseline x86-64 instruction set. No translation unit needs a
// target flag, so inline code is compiled one way everywhere.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed);

  result_type operator()() {
    if (next_ >= kStateSize) Refill();
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr size_t kStateSize = 312;

  // Twists all kStateSize words of state and rewinds next_.
  void Refill();

  result_type state_[kStateSize];
  size_t next_ = kStateSize;  // the first draw refills
};

// Deterministic pseudo-random source. Every randomized component in the
// library (generators, Pattern-Fusion's seed draws, fusion shuffles,
// sampling baselines) takes an explicit Rng or a 64-bit seed, so entire
// experiments replay bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform over all 64-bit values.
  uint64_t NextUint64() { return engine_(); }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    COLOSSAL_CHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Uniform double in [0, 1).
  double UniformDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  // Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      const size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  // Samples an index with probability proportional to weights[i].
  // Requires at least one strictly positive weight.
  int64_t WeightedIndex(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) {
      COLOSSAL_CHECK(w >= 0.0);
      total += w;
    }
    COLOSSAL_CHECK(total > 0.0) << "all weights are zero";
    double target = UniformDouble() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
      target -= weights[i];
      if (target < 0.0) return static_cast<int64_t>(i);
    }
    return static_cast<int64_t>(weights.size()) - 1;
  }

  // Draws `count` distinct indices uniformly from [0, population). Order
  // of the result is unspecified but deterministic for a given state.
  std::vector<int64_t> SampleWithoutReplacement(int64_t population,
                                                int64_t count) {
    COLOSSAL_CHECK(count >= 0 && count <= population);
    // Floyd's algorithm: O(count) expected insertions.
    std::vector<int64_t> chosen;
    chosen.reserve(static_cast<size_t>(count));
    for (int64_t j = population - count; j < population; ++j) {
      const int64_t candidate = UniformInt(0, j);
      bool already = false;
      for (int64_t c : chosen) {
        if (c == candidate) {
          already = true;
          break;
        }
      }
      chosen.push_back(already ? j : candidate);
    }
    return chosen;
  }

  // Derives an independent stream seed from a base seed and a stream
  // index (SplitMix64 finalizer over a golden-ratio offset). The fusion
  // engine seeds one Rng per (iteration, seed-slot) with nested MixSeed
  // calls, so per-seed randomness depends only on the slot index — never
  // on which thread runs the slot — keeping multi-threaded runs
  // bit-identical to serial ones.
  static uint64_t MixSeed(uint64_t seed, uint64_t stream) {
    uint64_t z = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace colossal

#endif  // COLOSSAL_COMMON_RNG_H_
