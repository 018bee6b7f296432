// Deterministic, seedable random number generation.
//
// xoshiro256** with a splitmix64 seeder; the same seed yields the same
// workload on every platform, which the reproduction harness relies on.
#pragma once

#include <cstdint>

namespace ksum {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value (xoshiro256**). Defined inline: instance
  /// generation draws once per coordinate.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1): the 53 high bits of next_u64().
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) {
    return lo + static_cast<float>(next_double()) * (hi - lo);
  }

  /// Standard normal via Box–Muller (cached second variate).
  float normal();

  /// Normal with given mean / stddev.
  float normal(float mean, float stddev);

  /// Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n);

  /// Derives an independent stream; children of distinct indices do not
  /// overlap for any practical draw count.
  Rng split(std::uint64_t stream_index) const;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  float cached_normal_ = 0.0f;
};

}  // namespace ksum
