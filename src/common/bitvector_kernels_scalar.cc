// Portable word-loop backend. Also the reference implementation: the
// randomized differential suite (tests/bitvector_kernel_test.cc) pins
// this backend and compares every other backend against it.

#include <bit>
#include <cstdint>

#include "common/bitvector_kernels.h"

namespace colossal {
namespace {

void AndWords(uint64_t* dst, const uint64_t* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] &= src[i];
}

int64_t PopcountWords(const uint64_t* words, int64_t n) {
  int64_t total = 0;
  for (int64_t i = 0; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

int64_t AndCountWords(const uint64_t* a, const uint64_t* b, int64_t n) {
  int64_t total = 0;
  for (int64_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

int64_t OrCountWords(const uint64_t* a, const uint64_t* b, int64_t n) {
  int64_t total = 0;
  for (int64_t i = 0; i < n; ++i) total += std::popcount(a[i] | b[i]);
  return total;
}

bool SubsetWords(const uint64_t* a, const uint64_t* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

void OrShiftedWords(uint64_t* dst, const uint64_t* src, int64_t src_words,
                    int64_t word_shift, int bit_shift) {
  for (int64_t i = 0; i < src_words; ++i) {
    const uint64_t word = src[i];
    if (word == 0) continue;  // sparse shards: skip empty words
    dst[i + word_shift] |= word << bit_shift;
    if (bit_shift != 0) {
      const uint64_t carry = word >> (64 - bit_shift);
      // A nonzero carry implies the destination word exists (the
      // caller's range check bounds offset + source bits).
      if (carry != 0) dst[i + word_shift + 1] |= carry;
    }
  }
}

}  // namespace

const BitvectorKernels& ScalarBitvectorKernels() {
  static constexpr BitvectorKernels kScalar = {
      "scalar",     AndWords,    PopcountWords,  AndCountWords,
      OrCountWords, SubsetWords, OrShiftedWords,
  };
  return kScalar;
}

}  // namespace colossal
