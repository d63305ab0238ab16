#ifndef COLOSSAL_COMMON_BITVECTOR_KERNELS_H_
#define COLOSSAL_COMMON_BITVECTOR_KERNELS_H_

#include <cstdint>

namespace colossal {

// Word-level set-algebra backends behind Bitvector. Every Bitvector
// operation delegates its word loop to the one table returned by
// ActiveBitvectorKernels(), resolved once at first use — so call sites
// never change and swapping backends cannot change results: every
// backend computes bit-identical answers (the kernels are exact set
// algebra, not approximations), which is what keeps mining output
// byte-identical across scalar/AVX2, thread counts, and sharding. The
// existing determinism matrices are the oracle for that claim.
//
// All kernels operate on packed uint64 words; length checks and
// trailing-bit canonicalization stay in Bitvector. `n` may be 0.
struct BitvectorKernels {
  // Backend name ("scalar", "avx2") — surfaced in the serve stats line
  // as simd=<name> so operators can see what actually resolved.
  const char* name;

  // dst[i] &= src[i].
  void (*and_words)(uint64_t* dst, const uint64_t* src, int64_t n);

  // Popcount reductions (no result materialization).
  int64_t (*popcount_words)(const uint64_t* words, int64_t n);
  int64_t (*and_count_words)(const uint64_t* a, const uint64_t* b, int64_t n);
  int64_t (*or_count_words)(const uint64_t* a, const uint64_t* b, int64_t n);

  // Early-exit predicate: a ⊆ b.
  bool (*subset_words)(const uint64_t* a, const uint64_t* b, int64_t n);

  // The shard-stitch kernel: ORs the `src_words`-word source into dst at
  // word offset `word_shift`, each word shifted left by `bit_shift`
  // (0..63) with carry into the next destination word. The caller
  // guarantees every touched destination word exists (Bitvector's
  // OrWithShifted range check).
  void (*or_shifted_words)(uint64_t* dst, const uint64_t* src,
                           int64_t src_words, int64_t word_shift,
                           int bit_shift);
};

// The portable backend (std::popcount / plain word loops). Always
// available; the differential tests use it as the reference.
const BitvectorKernels& ScalarBitvectorKernels();

// The AVX2 backend when this build carries one (the AVX2 TU is compiled
// with -mavx2 only where the compiler supports it), else nullptr.
// Callers must still check CpuSupportsAvx2() before using it.
const BitvectorKernels* Avx2BitvectorKernels();

// True iff the running CPU can execute the AVX2 backend.
bool CpuSupportsAvx2();

// The backend every Bitvector operation routes through. Resolution, in
// order: COLOSSAL_FORCE_SCALAR set in the environment (non-empty and
// not "0") → scalar; AVX2 compiled in and supported by this CPU → avx2;
// otherwise scalar.
const BitvectorKernels& ActiveBitvectorKernels();

// Overrides the resolved backend for subsequent operations: true pins
// scalar, false re-resolves (honoring the environment variable). For
// benches, tools, and the differential tests; not intended to be called
// concurrently with mining.
void SetBitvectorForceScalar(bool force_scalar);

}  // namespace colossal

#endif  // COLOSSAL_COMMON_BITVECTOR_KERNELS_H_
