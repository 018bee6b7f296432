// Small integer/math helpers shared across the library.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/error.h"

namespace ksum {

/// Ceiling division for non-negative integers.
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  KSUM_DCHECK(b > 0);
  KSUM_DCHECK(a >= 0);
  return (a + b - 1) / b;
}

/// Rounds `a` up to the nearest multiple of `b`.
template <typename T>
constexpr T round_up(T a, T b) {
  return ceil_div(a, b) * b;
}

template <typename T>
constexpr bool is_pow2(T x) {
  static_assert(std::is_integral_v<T>);
  return x > 0 && (x & (x - 1)) == 0;
}

/// Integer log2 of a power of two.
template <typename T>
constexpr int log2_exact(T x) {
  KSUM_DCHECK(is_pow2(x));
  int l = 0;
  while ((T{1} << l) < x) ++l;
  return l;
}

/// a·b and a+b for sizes, throwing ksum::Error when the result does not fit
/// in size_t: every arena and instance size is computed through these, so
/// an absurd shape is refused instead of wrapping to a small allocation.
inline std::size_t checked_mul(std::size_t a, std::size_t b) {
  std::size_t out = 0;
  KSUM_REQUIRE(!__builtin_mul_overflow(a, b, &out),
               "problem size overflows size_t");
  return out;
}

inline std::size_t checked_add(std::size_t a, std::size_t b) {
  std::size_t out = 0;
  KSUM_REQUIRE(!__builtin_add_overflow(a, b, &out),
               "problem size overflows size_t");
  return out;
}

/// Saturating conversion of a double ratio into percent.
constexpr double as_percent(double ratio) { return ratio * 100.0; }

/// Relative error |a-b| / max(|b|, floor). Used by numerical tests.
inline double rel_err(double a, double b, double floor = 1e-30) {
  const double denom = std::abs(b) > floor ? std::abs(b) : floor;
  return std::abs(a - b) / denom;
}

}  // namespace ksum
