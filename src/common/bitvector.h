#ifndef COLOSSAL_COMMON_BITVECTOR_H_
#define COLOSSAL_COMMON_BITVECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace colossal {

// A fixed-length packed bit vector used to represent transaction-id sets
// (tidsets / "support sets" in the paper). All set-algebra kernels are
// word-parallel and routed through the runtime-dispatched backend table
// in common/bitvector_kernels.h (scalar or AVX2 — bit-identical by
// construction); with the paper's datasets (≤ 4,395 transactions) a
// support set is at most 69 words, so intersections and popcounts — the
// inner loop of Pattern-Fusion's ball queries — are a few dozen ns.
//
// Storage is a single 64-byte-aligned heap word buffer (AllocateWords).
class Bitvector {
 public:
  // Constructs an empty (zero-length) vector.
  Bitvector() = default;

  // Constructs `num_bits` bits, all cleared (or all set when `value`).
  explicit Bitvector(int64_t num_bits, bool value = false);

  Bitvector(const Bitvector& other);
  Bitvector(Bitvector&& other) noexcept;
  Bitvector& operator=(const Bitvector& other);
  Bitvector& operator=(Bitvector&& other) noexcept;
  ~Bitvector();

  // Returns a vector of `num_bits` ones.
  static Bitvector AllSet(int64_t num_bits) { return Bitvector(num_bits, true); }

  // Returns a vector with exactly the given bit indices set. Indices must
  // be unique and < num_bits.
  static Bitvector FromIndices(int64_t num_bits,
                               const std::vector<int64_t>& indices);

  int64_t size_bits() const { return num_bits_; }

  // Words a `num_bits` vector occupies: ceil(num_bits / 64).
  static int64_t WordsFor(int64_t num_bits) { return (num_bits + 63) / 64; }

  // The packed words (bit i lives in word i / 64 at position i % 64),
  // for callers that run the kernel table on raw rows — the columnar
  // PatternPool stores support sets this way. Bits past size_bits() are
  // zero, and writers through mutable_words() must keep them zero.
  const uint64_t* words() const { return words_; }
  uint64_t* mutable_words() { return words_; }

  void Set(int64_t bit);
  void Reset(int64_t bit);
  bool Test(int64_t bit) const;

  // Number of set bits.
  int64_t Count() const;

  // In-place intersection; both operands must have equal size_bits().
  void AndWith(const Bitvector& other);

  // this |= (other << offset): ORs `other` into this at bit positions
  // [offset, offset + other.size_bits()). Word-parallel; the shard layer
  // uses it to stitch per-shard support sets (local row indices) into a
  // global support set. Requires offset >= 0 and the shifted range to
  // fit within size_bits().
  void OrWithShifted(const Bitvector& other, int64_t offset);

  // Out-of-place intersection.
  static Bitvector And(const Bitvector& a, const Bitvector& b);

  // |a ∩ b| / |a ∪ b| popcounts without materializing the result.
  static int64_t AndCount(const Bitvector& a, const Bitvector& b);
  static int64_t OrCount(const Bitvector& a, const Bitvector& b);

  // True iff every set bit of *this is set in `other`.
  bool IsSubsetOf(const Bitvector& other) const;

  // Jaccard distance 1 − |a∩b|/|a∪b| (the paper's pattern distance,
  // Definition 6, when a and b are support sets). Two empty sets are at
  // distance 0 by convention.
  static double JaccardDistance(const Bitvector& a, const Bitvector& b);

  // The positions of set bits, in increasing order.
  std::vector<int64_t> ToIndices() const;

  // Renders as e.g. "0110" (bit 0 first). Intended for tests/debugging.
  std::string ToString() const;

  // Appends a compact binary encoding to `out`: the bit length as a
  // little-endian int64, then the packed words little-endian. The
  // encoding is platform-independent and self-delimiting (the length
  // determines the word count), which is what the dataset snapshot
  // format needs to concatenate one tidset per item.
  void AppendTo(std::string* out) const;

  // Number of bytes AppendTo writes for a vector of `num_bits` bits.
  static int64_t SerializedBytes(int64_t num_bits);

  // Parses one encoded vector from `data` starting at *pos and advances
  // *pos past it. Fails on truncated input, a negative length, or set
  // bits beyond the declared length (corrupt padding).
  static StatusOr<Bitvector> ParseFrom(const std::string& data, size_t* pos);

  friend bool operator==(const Bitvector& a, const Bitvector& b);
  friend bool operator!=(const Bitvector& a, const Bitvector& b) {
    return !(a == b);
  }

 private:
  void ClearTrailingBits();
  int64_t num_words() const;

  uint64_t* words_ = nullptr;
  int64_t num_bits_ = 0;
};

// A heap buffer of `num_words` words aligned to one 64-byte cache line
// (contents uninitialized; null for 0 words), released by FreeWords.
// Bitvector and PatternPool keep their support sets in these.
uint64_t* AllocateWords(int64_t num_words);
void FreeWords(uint64_t* words);

}  // namespace colossal

#endif  // COLOSSAL_COMMON_BITVECTOR_H_
