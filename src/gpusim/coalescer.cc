#include "gpusim/coalescer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

#include "common/error.h"
#include "common/math_util.h"

namespace ksum::gpusim {
namespace {

// Writes the distinct units `(addr >> shift)` that the active lanes' 4-byte
// pieces touch to `out`, ascending, and returns their count. A lane's pieces
// base, base+4, … cover every unit from `base >> shift` to
// `(base + last_piece) >> shift` when a unit is at least one word, so each
// lane contributes one contiguous range. Ranges of lanes in address order
// append in order and only a repeat of the last unit is dropped; the list
// is sorted only when some range starts below the unit before it.
int distinct_units(const GlobalWarpAccess& access, int shift,
                   GlobalAddr* out) {
  KSUM_REQUIRE(access.width_bytes >= Coalescer::kMinWidthBytes &&
                   access.width_bytes <= Coalescer::kMaxWidthBytes,
               "global access width " + std::to_string(access.width_bytes) +
                   " is outside [" +
                   std::to_string(Coalescer::kMinWidthBytes) + ", " +
                   std::to_string(Coalescer::kMaxWidthBytes) + "] bytes");
  const auto last_piece =
      static_cast<GlobalAddr>((access.width_bytes - 1) & ~3);
  const GlobalAddr offset_mask = (GlobalAddr{1} << shift) - 1;
  int count = 0;
  bool descended = false;
  // Units stay below 2^62 (shift >= 2), so no unit equals the initial
  // `prev` and, as `prev + 1` wraps to 0, none compares below it either.
  GlobalAddr prev = ~GlobalAddr{0};
  for (std::uint32_t mask = access.active_mask; mask != 0; mask &= mask - 1) {
    const int lane = std::countr_zero(mask);
    const GlobalAddr base = access.addr[static_cast<std::size_t>(lane)];
    KSUM_DCHECK(base % 4 == 0);
    const GlobalAddr lo = base >> shift;
    const GlobalAddr hi = lo + (((base & offset_mask) + last_piece) >> shift);
    for (GlobalAddr unit = lo; unit <= hi; ++unit) {
      if (unit == prev) continue;
      descended |= unit + 1 < prev + 1;
      out[count++] = unit;
      prev = unit;
    }
  }
  if (descended) {
    std::sort(out, out + count);
    count = static_cast<int>(std::unique(out, out + count) - out);
  }
  return count;
}

}  // namespace

Coalescer::Coalescer(int sector_bytes)
    : sector_bytes_(sector_bytes), sector_shift_(0) {
  KSUM_REQUIRE(sector_bytes >= 4 && is_pow2(sector_bytes),
               "coalescer sector size must be 2^k and at least 4 bytes");
  sector_shift_ = std::countr_zero(static_cast<unsigned>(sector_bytes));
}

int Coalescer::sectors_for(const GlobalWarpAccess& access,
                           GlobalAddr* out) const {
  const int count = distinct_units(access, sector_shift_, out);
  for (int i = 0; i < count; ++i) out[i] <<= sector_shift_;
  return count;
}

std::vector<GlobalAddr> Coalescer::sectors_for(
    const GlobalWarpAccess& access) const {
  std::array<GlobalAddr, kMaxSectors> buffer;
  const int count = sectors_for(access, buffer.data());
  return {buffer.begin(), buffer.begin() + count};
}

int Coalescer::ideal_sectors_for(const GlobalWarpAccess& access) const {
  // Distinct words touched (lanes may overlap under broadcast), packed into
  // as few sectors as arithmetic allows.
  std::array<GlobalAddr, kMaxSectors> words;
  const int count = distinct_units(access, 2, words.data());
  return (count * 4 + sector_bytes_ - 1) / sector_bytes_;
}

}  // namespace ksum::gpusim
