// Global-load/store coalescing unit.
//
// A warp request is broken into the set of distinct 32-byte sectors the
// active lanes touch — that set is exactly the stream of L2 transactions the
// request generates (nvprof's gld/gst transaction counters work the same
// way). Fully coalesced float accesses produce 4 sectors per warp; float4
// accesses produce 16.
#pragma once

#include <vector>

#include "gpusim/address.h"

namespace ksum::gpusim {

class Coalescer {
 public:
  /// Per-lane access widths the coalescer prices: a float up to a float4.
  static constexpr int kMinWidthBytes = 4;
  static constexpr int kMaxWidthBytes = 16;

  /// Most distinct sectors one warp request can touch: every 4-byte piece
  /// of every lane in its own sector.
  static constexpr int kMaxSectors = kWarpSize * kMaxWidthBytes / 4;

  /// `sector_bytes` must be a power of two of at least 4 bytes.
  explicit Coalescer(int sector_bytes);

  /// Writes the distinct sector base addresses touched by the access to
  /// `out` (kMaxSectors slots), sorted ascending, and returns their count.
  /// Allocation-free; a width outside [kMinWidthBytes, kMaxWidthBytes]
  /// throws ksum::Error.
  int sectors_for(const GlobalWarpAccess& access, GlobalAddr* out) const;

  /// The same list as a vector.
  std::vector<GlobalAddr> sectors_for(const GlobalWarpAccess& access) const;

  /// Minimum sectors that could service the access if its distinct bytes
  /// were densely packed — the coalescing lint's per-request ideal. A fully
  /// coalesced float access needs 4, a float4 access 16; a 128-byte-strided
  /// scalar access still needs only 4 under this ideal but generates 32
  /// sectors, which is exactly the gap the lint reports.
  int ideal_sectors_for(const GlobalWarpAccess& access) const;

  int sector_bytes() const { return sector_bytes_; }

 private:
  int sector_bytes_;
  int sector_shift_;  // log2(sector_bytes_)
};

}  // namespace ksum::gpusim
