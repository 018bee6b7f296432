// The Fig.-5 shared-memory data/thread mapping.
//
// A tile (tileA tileM×tileK or tileB tileK×tileN) is split into microtiles
// of micro×micro; each microtile into `micro` *tracks* of tileK elements
// (for tileB a track is one column's K-values; for tileA one row's — both
// are contiguous, 16-byte-aligned bytes in global memory). Each loader
// thread fetches exactly one track (tileK/4 float4 loads) and scatters it
// into shared memory reshaped across the 32 banks. With b = 32/microtiles
// banks per microtile:
//
//   element (k, track t) of microtile m  →  bank b·m + (t mod b),
//                                            row  tileK·⌊t/b⌋ + k
//
// For the paper's geometry (16 microtiles, b = 2) this is exactly Fig. 5:
// bank 2m + (t & 1), row 8·(t >> 1) + k. Properties (proved by
// tests/gpukernels/smem_layout_test.cc):
//   * stores: warp chunk c lane l writes bank l — 32 distinct banks, one
//     row → conflict-free;
//   * compute loads: at main-loop step k every warp reads operand u of
//     ≤ 32/block microtiles per access — few banks, one row, duplicate
//     lanes broadcast → conflict-free;
//   * the microtiles spread across all 32 banks, the paper's stated goal.
//
// The *naive* layout is the paper's "intuitive" scheme (each thread drops
// its whole track into a single bank, tracks in linear order). Its stores
// are also conflict-free, but the compute loads hit up to 4 rows per access;
// it is kept as the ablation baseline.
#pragma once

#include <vector>

#include "gpusim/address.h"
#include "gpukernels/tile_geometry.h"

namespace ksum::gpukernels {

enum class TileLayout { kFig5, kNaive };

/// Which track a loader thread owns. `loader_index` is the thread's virtual
/// index within its tile-loading half (chunk = loader_index/32); a half
/// covers `microtiles`·micro tracks. Fig.5: chunk c takes tracks
/// {b·c … b·c+b-1} of every microtile (b = 32/microtiles). Naive: thread i
/// takes track i in linear order.
struct TrackAssignment {
  int microtile;  // 0..microtiles-1
  int track;      // 0..micro-1
};

TrackAssignment track_of_loader(TileLayout layout, const TileGeometry& g,
                                int microtiles, int loader_index);

/// Byte offset (within a tile buffer) where element `k` of track `t` of
/// microtile `m` lives under the Fig.-5 layout.
gpusim::SharedAddr fig5_offset(const TileGeometry& g, int microtiles,
                               int microtile, int track, int k);

/// Naive layout: track τ = micro·m+t lives entirely in bank τ mod 32, rows
/// tileK·⌊τ/32⌋ … +tileK-1.
gpusim::SharedAddr naive_offset(const TileGeometry& g, int microtiles,
                                int microtile, int track, int k);

gpusim::SharedAddr tile_offset(TileLayout layout, const TileGeometry& g,
                               int microtiles, int microtile, int track,
                               int k);

/// One operand tile's shared-memory offsets, tabulated once per CTA so the
/// loader's scatter stores and the main loop's operand loads index a table
/// instead of recomputing the layout per lane: at(τ, k) is
/// tile_offset(layout, g, tracks/micro, τ/micro, τ%micro, k) for track
/// τ = micro·microtile + t.
struct TileOffsetTable {
  TileLayout layout = TileLayout::kFig5;
  int tile_k = 0;
  std::vector<gpusim::SharedAddr> offsets;  // [τ·tile_k + k]

  int tracks() const { return static_cast<int>(offsets.size()) / tile_k; }
  gpusim::SharedAddr at(int track, int k) const {
    return offsets[static_cast<std::size_t>(track * tile_k + k)];
  }
};

/// Tabulates the `tile_rows` tracks of a tile (tile_m for tileA, tile_n for
/// tileB) under `layout`.
TileOffsetTable make_tile_offset_table(TileLayout layout,
                                       const TileGeometry& g, int tile_rows);

// Paper-geometry conveniences (the shapes the original constants encoded);
// kept for the layout tests and the analysis examples.
inline TrackAssignment track_of_loader(TileLayout layout, int loader_index) {
  return track_of_loader(layout, TileGeometry{}, 16, loader_index);
}
inline gpusim::SharedAddr fig5_offset(int microtile, int track, int k) {
  return fig5_offset(TileGeometry{}, 16, microtile, track, k);
}
inline gpusim::SharedAddr naive_offset(int microtile, int track, int k) {
  return naive_offset(TileGeometry{}, 16, microtile, track, k);
}
inline gpusim::SharedAddr tile_offset(TileLayout layout, int microtile,
                                      int track, int k) {
  return tile_offset(layout, TileGeometry{}, 16, microtile, track, k);
}
/// Offset of the operand word the compute phase reads at main-loop step k:
/// operand u of microtile `mt` (mt = ty for tileA, tx for tileB).
inline gpusim::SharedAddr operand_offset(TileLayout layout, int mt, int u,
                                         int k) {
  return tile_offset(layout, TileGeometry{}, 16, mt, u, k);
}

}  // namespace ksum::gpukernels
