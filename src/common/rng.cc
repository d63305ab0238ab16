#include "common/rng.h"

namespace colossal {

namespace {
constexpr size_t kShift = 156;  // the recurrence's middle offset, m
constexpr uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

// One step of the twist: the standard's (y & 1) ? kMatrix : 0, as a mask.
inline uint64_t Twist(uint64_t far, uint64_t current, uint64_t next) {
  const uint64_t y = (current & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMatrix);
}
}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const uint64_t previous = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (previous ^ (previous >> 62)) + i;
  }
}

void Mt19937_64::Refill() {
  for (size_t k = 0; k < kStateSize - kShift; ++k) {
    state_[k] = Twist(state_[k + kShift], state_[k], state_[k + 1]);
  }
  for (size_t k = kStateSize - kShift; k < kStateSize - 1; ++k) {
    state_[k] =
        Twist(state_[k - (kStateSize - kShift)], state_[k], state_[k + 1]);
  }
  state_[kStateSize - 1] =
      Twist(state_[kShift - 1], state_[kStateSize - 1], state_[0]);
  next_ = 0;
}

}  // namespace colossal
