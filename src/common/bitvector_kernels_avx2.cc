// AVX2 backend. This is the only TU compiled with -mavx2 (CMake applies
// the flag per-file when the compiler supports it), so the rest of the
// binary stays runnable on any x86-64; the dispatcher only selects this
// table after __builtin_cpu_supports("avx2") says the CPU can run it.
// When the flag is unavailable the fallback at the bottom compiles
// instead and the build simply has no AVX2 backend.
//
// Popcounts use the pshufb nibble-lookup (Muła) reduction:
// per-byte counts via two 16-entry table shuffles, summed into 64-bit
// lanes with _mm256_sad_epu8. The subset predicate uses VPTEST, so it
// never leaves flags. All loops finish with scalar tails;
// results are bit-identical to the scalar backend by construction.

#include <cstdint>

#include "common/bitvector_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace colossal {
namespace {

inline __m256i LoadWords(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void StoreWords(uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// Per-64-bit-lane popcount of v.
inline __m256i PopcountLanes(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline int64_t HorizontalSum(__m256i lanes) {
  const __m128i folded = _mm_add_epi64(_mm256_castsi256_si128(lanes),
                                       _mm256_extracti128_si256(lanes, 1));
  return _mm_cvtsi128_si64(folded) + _mm_extract_epi64(folded, 1);
}

void AndWords(uint64_t* dst, const uint64_t* src, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    StoreWords(dst + i, _mm256_and_si256(LoadWords(dst + i),
                                         LoadWords(src + i)));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

// dst[i] |= src[i]: the word-aligned case of OrShiftedWords.
void OrWords(uint64_t* dst, const uint64_t* src, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    StoreWords(dst + i, _mm256_or_si256(LoadWords(dst + i),
                                        LoadWords(src + i)));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

int64_t PopcountWords(const uint64_t* words, int64_t n) {
  __m256i lanes = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lanes = _mm256_add_epi64(lanes, PopcountLanes(LoadWords(words + i)));
  }
  int64_t total = HorizontalSum(lanes);
  for (; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

int64_t AndCountWords(const uint64_t* a, const uint64_t* b, int64_t n) {
  __m256i lanes = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lanes = _mm256_add_epi64(
        lanes, PopcountLanes(_mm256_and_si256(LoadWords(a + i),
                                              LoadWords(b + i))));
  }
  int64_t total = HorizontalSum(lanes);
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

int64_t OrCountWords(const uint64_t* a, const uint64_t* b, int64_t n) {
  __m256i lanes = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lanes = _mm256_add_epi64(
        lanes, PopcountLanes(_mm256_or_si256(LoadWords(a + i),
                                             LoadWords(b + i))));
  }
  int64_t total = HorizontalSum(lanes);
  for (; i < n; ++i) total += std::popcount(a[i] | b[i]);
  return total;
}

bool SubsetWords(const uint64_t* a, const uint64_t* b, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // vptest CF: (~b & a) == 0, i.e. a ⊆ b.
    if (!_mm256_testc_si256(LoadWords(b + i), LoadWords(a + i))) return false;
  }
  for (; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

void OrShiftedWords(uint64_t* dst, const uint64_t* src, int64_t src_words,
                    int64_t word_shift, int bit_shift) {
  if (bit_shift != 0) {
    // Shard row offsets are rarely multiples of 64, and the cross-word
    // carry chain defeats a clean vector form — the scalar kernel's
    // sparse skip wins there anyway.
    ScalarBitvectorKernels().or_shifted_words(dst, src, src_words, word_shift,
                                              bit_shift);
    return;
  }
  OrWords(dst + word_shift, src, src_words);
}

}  // namespace

const BitvectorKernels* Avx2BitvectorKernels() {
  static constexpr BitvectorKernels kAvx2 = {
      "avx2",       AndWords,    PopcountWords,  AndCountWords,
      OrCountWords, SubsetWords, OrShiftedWords,
  };
  return &kAvx2;
}

}  // namespace colossal

#else  // !defined(__AVX2__)

namespace colossal {

const BitvectorKernels* Avx2BitvectorKernels() { return nullptr; }

}  // namespace colossal

#endif  // defined(__AVX2__)
