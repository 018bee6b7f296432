// Global→shared tile loading (§III-B of the paper).
//
// One half of the CTA's warps loads tileA, the other half tileB, each
// thread fetching one tileK-element track with tileK/4 float4 loads and
// scattering it into shared memory under the selected layout. Both tiles
// expose the same addressing because a track is contiguous in global memory
// for either operand (A row-major rows, B col-major columns, both with
// leading dimension K). A half covers its tile's tracks in 32-thread
// chunks; when the tile has more tracks than the half has lanes, the
// half's warps iterate round-robin (the paper's tiles are one chunk per
// warp: 128 tracks over 4 warps).
#pragma once

#include <vector>

#include "gpukernels/smem_layout.h"
#include "gpusim/device.h"
#include "gpusim/global_memory.h"

namespace ksum::gpukernels {

/// Describes the CTA's track panel of one operand matrix.
struct TileSource {
  gpusim::DeviceBuffer buffer;
  std::size_t origin = 0;   // first row (A) / column (B) of the panel
  std::size_t leading = 8;  // stride in floats between tracks (= K)
};

/// Per-track squared-norm accumulators: slot micro·m+t holds Σ v² of the
/// track's elements loaded so far. A loader thread owns the same track in
/// every K-iteration, so accumulating during the loads yields the full
/// ‖·‖² by the end of the main loop — the fuse-norms extension builds on
/// this. Sized to the tile edge (tile_m for the A half, tile_n for B).
using TrackNormAccumulators = std::vector<float>;

/// Per-lane operand staging used by the compute/epilogue phases; loops are
/// bounded by the live geometry's micro (≤ kMaxMicro).
using OperandLanes = std::array<std::array<float, kMaxMicro>, 32>;

/// Loads the K-slice [k0, k0+tileK) of `src` into the shared-memory region
/// starting at `smem_base`, using the half's warps
/// `warp_base`..`warp_base+loader_warps-1` (0 for the tileA half,
/// loader_warps for the tileB half). `offsets` is the tile's offset table
/// (make_tile_offset_table); its layout assigns the tracks and its track
/// count is the tile's (tile_m for A, tile_n for B). When `norms` is
/// non-null, each loaded element's square is added to its track's
/// accumulator (counted as extra FMA work).
void load_tile(gpusim::BlockContext& ctx, const TileGeometry& geom,
               const TileSource& src, std::size_t k0,
               gpusim::SharedAddr smem_base, const TileOffsetTable& offsets,
               int warp_base, TrackNormAccumulators* norms = nullptr);

/// Loads a `count`-float vector segment (norms, weights) starting at global
/// float index `origin` of `buffer` into shared memory at `smem_base`, in
/// 32-float warp chunks (one coalesced scalar access each).
void load_vector_segment(gpusim::BlockContext& ctx, const TileGeometry& geom,
                         const gpusim::DeviceBuffer& buffer,
                         std::size_t origin, gpusim::SharedAddr smem_base,
                         int count);

/// Reads the per-thread operand vectors of a staged segment: for each warp
/// lane, the `micro` values indexed by its microtile row (by_row=true,
/// index micro·ty+e) or column (by_row=false, index micro·tx+e). Used by
/// the fused kernels' epilogues for norms and weights.
OperandLanes load_segment_operands(gpusim::BlockContext& ctx,
                                   const TileGeometry& geom,
                                   gpusim::SharedAddr base, int warp,
                                   bool by_row);

}  // namespace ksum::gpukernels
