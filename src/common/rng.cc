#include "common/rng.h"

#include <cmath>

namespace ksum {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

float Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to keep log() finite.
  double u1 = 1.0 - next_double();
  double u2 = next_double();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = static_cast<float>(r * std::sin(theta));
  have_cached_normal_ = true;
  return static_cast<float>(r * std::cos(theta));
}

float Rng::normal(float mean, float stddev) {
  return mean + stddev * normal();
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

Rng Rng::split(std::uint64_t stream_index) const {
  // Mix the child's index into a fresh seed derived from this state.
  std::uint64_t seed = s_[0] ^ rotl(s_[2], 13) ^
                       (stream_index * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return Rng(seed);
}

}  // namespace ksum
