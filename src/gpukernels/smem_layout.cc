#include "gpukernels/smem_layout.h"

#include "common/error.h"

namespace ksum::gpukernels {

TrackAssignment track_of_loader(TileLayout layout, const TileGeometry& g,
                                int microtiles, int loader_index) {
  KSUM_DCHECK(loader_index >= 0 && loader_index < microtiles * g.micro);
  if (layout == TileLayout::kNaive) {
    return {loader_index / g.micro, loader_index % g.micro};
  }
  const int chunk = loader_index / 32;
  const int lane = loader_index % 32;
  // With b = 32/microtiles banks (and tracks) per microtile per chunk,
  // chunk c picks tracks {b·c … b·c+b-1} from every microtile: lane l works
  // on microtile ⌊l/b⌋, track b·c + (l mod b). Across the half's chunks all
  // microtiles × micro tracks are covered exactly once. The paper's 16
  // microtiles give b = 2: warp w takes tracks {2w, 2w+1}.
  const int b = 32 / microtiles;
  return {lane / b, b * chunk + (lane % b)};
}

gpusim::SharedAddr fig5_offset(const TileGeometry& g, int microtiles,
                               int microtile, int track, int k) {
  KSUM_DCHECK(microtile >= 0 && microtile < microtiles);
  KSUM_DCHECK(track >= 0 && track < g.micro);
  KSUM_DCHECK(k >= 0 && k < g.tile_k);
  const int b = 32 / microtiles;
  const int bank = b * microtile + (track % b);
  const int row = g.tile_k * (track / b) + k;
  return static_cast<gpusim::SharedAddr>((row * 32 + bank) * 4);
}

gpusim::SharedAddr naive_offset(const TileGeometry& g,
                                [[maybe_unused]] int microtiles,
                                int microtile, int track, int k) {
  KSUM_DCHECK(microtile >= 0 && microtile < microtiles);
  KSUM_DCHECK(track >= 0 && track < g.micro);
  KSUM_DCHECK(k >= 0 && k < g.tile_k);
  // Track τ stacked vertically in bank τ mod 32.
  const int tau = microtile * g.micro + track;
  const int bank = tau % 32;
  const int row = g.tile_k * (tau / 32) + k;
  return static_cast<gpusim::SharedAddr>((row * 32 + bank) * 4);
}

gpusim::SharedAddr tile_offset(TileLayout layout, const TileGeometry& g,
                               int microtiles, int microtile, int track,
                               int k) {
  return layout == TileLayout::kFig5
             ? fig5_offset(g, microtiles, microtile, track, k)
             : naive_offset(g, microtiles, microtile, track, k);
}

TileOffsetTable make_tile_offset_table(TileLayout layout,
                                       const TileGeometry& g, int tile_rows) {
  const int microtiles = tile_rows / g.micro;
  TileOffsetTable table{layout, g.tile_k, {}};
  table.offsets.reserve(static_cast<std::size_t>(tile_rows * g.tile_k));
  for (int track = 0; track < tile_rows; ++track) {
    for (int k = 0; k < g.tile_k; ++k) {
      table.offsets.push_back(tile_offset(layout, g, microtiles,
                                          track / g.micro, track % g.micro,
                                          k));
    }
  }
  return table;
}

}  // namespace ksum::gpukernels
