#include "gpukernels/tile_loader.h"

#include "common/error.h"
#include "gpusim/access_site.h"

namespace ksum::gpukernels {

void load_tile(gpusim::BlockContext& ctx, const TileGeometry& geom,
               const TileSource& src, std::size_t k0,
               gpusim::SharedAddr smem_base, const TileOffsetTable& offsets,
               int warp_base, TrackNormAccumulators* norms) {
  KSUM_DCHECK(k0 % static_cast<std::size_t>(geom.tile_k) == 0);
  KSUM_DCHECK(src.leading % static_cast<std::size_t>(geom.tile_k) == 0);
  KSUM_DCHECK(offsets.tile_k == geom.tile_k);
  const int tile_rows = offsets.tracks();
  KSUM_DCHECK(tile_rows % 32 == 0);

  const int microtiles = tile_rows / geom.micro;
  const int chunks = tile_rows / 32;
  const int pieces = geom.tile_k / 4;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    // The half's warps walk the chunks round-robin; with the paper's tiles
    // each of the 4 warps owns exactly one chunk.
    const int warp = warp_base + chunk % geom.loader_warps();
    // Per-lane track τ = micro·microtile + t and staging registers for its
    // elements (every slot below tile_k is written before it is read).
    std::array<int, 32> tracks;
    std::array<std::array<float, kMaxTileK>, 32> staged;
    for (int lane = 0; lane < 32; ++lane) {
      const TrackAssignment ta = track_of_loader(offsets.layout, geom,
                                                 microtiles, chunk * 32 + lane);
      tracks[static_cast<std::size_t>(lane)] =
          geom.micro * ta.microtile + ta.track;
    }

    // tileK/4 float4 global loads cover the track's elements.
    for (int piece = 0; piece < pieces; ++piece) {
      gpusim::GlobalWarpAccess access;
      access.width_bytes = 16;
      access.site = KSUM_ACCESS_SITE("tile track fetch (float4 piece)");
      access.warp = warp;
      for (int lane = 0; lane < 32; ++lane) {
        const std::size_t track_index =
            src.origin +
            static_cast<std::size_t>(tracks[static_cast<std::size_t>(lane)]);
        const std::size_t float_index =
            track_index * src.leading + k0 + static_cast<std::size_t>(piece) * 4;
        access.set_lane(lane, src.buffer.addr_of_float(float_index));
      }
      const auto loaded = ctx.global_load_vec4(access);
      for (int lane = 0; lane < 32; ++lane) {
        for (int w = 0; w < 4; ++w) {
          // Every staged operand element is a kTileLoad injection
          // opportunity (identity without an attached injector).
          staged[static_cast<std::size_t>(lane)]
                [static_cast<std::size_t>(piece * 4 + w)] =
                    ctx.filter_fault(gpusim::FaultSite::kTileLoad,
                                     loaded[static_cast<std::size_t>(lane)]
                                           [static_cast<std::size_t>(w)]);
        }
      }
    }
    // Address arithmetic for the loads/stores of this warp chunk.
    ctx.count_alu(32 * 4);

    if (norms != nullptr) {
      for (int lane = 0; lane < 32; ++lane) {
        float& acc = (*norms)[static_cast<std::size_t>(
            tracks[static_cast<std::size_t>(lane)])];
        for (int k = 0; k < geom.tile_k; ++k) {
          const float v =
              staged[static_cast<std::size_t>(lane)][static_cast<std::size_t>(
                  k)];
          acc += v * v;
        }
      }
      ctx.count_fma(static_cast<std::uint64_t>(32 * geom.tile_k));
    }

    // tileK conflict-free scalar stores scatter the track into the layout.
    for (int k = 0; k < geom.tile_k; ++k) {
      gpusim::SharedWarpAccess store;
      store.site = KSUM_ACCESS_SITE("tile track scatter store");
      store.warp = warp;
      std::array<float, 32> values;
      for (int lane = 0; lane < 32; ++lane) {
        const int track = tracks[static_cast<std::size_t>(lane)];
        store.set_lane(lane, smem_base + offsets.at(track, k));
        values[static_cast<std::size_t>(lane)] =
            staged[static_cast<std::size_t>(lane)][static_cast<std::size_t>(k)];
      }
      ctx.smem().store_warp(store, values);
    }
  }
}

OperandLanes load_segment_operands(gpusim::BlockContext& ctx,
                                   const TileGeometry& geom,
                                   gpusim::SharedAddr base, int warp,
                                   bool by_row) {
  OperandLanes out{};
  for (int e = 0; e < geom.micro; ++e) {
    gpusim::SharedWarpAccess access;
    // By-row reads touch one 128B row per request (conflict-free); by-column
    // reads span the tx values × micro·4B — several rows, a bounded replay
    // the fused epilogues accept because the segment is consumed once per
    // tile, not once per K-iteration.
    access.site =
        by_row ? KSUM_ACCESS_SITE("segment operand load (by row)")
               : KSUM_ACCESS_SITE_ANNOTATED(
                     "segment operand load (by column)",
                     ::ksum::gpusim::kSiteAllowBankConflicts,
                     "4 distinct 128B rows per request; epilogue-only "
                     "traffic, not worth a padded staging layout");
    access.warp = warp;
    for (int lane = 0; lane < 32; ++lane) {
      const int tid = warp * 32 + lane;
      const int tx = tid % geom.block_x;
      const int ty = tid / geom.block_x;
      const int idx = geom.micro * (by_row ? ty : tx) + e;
      access.set_lane(lane,
                      base + static_cast<gpusim::SharedAddr>(idx * 4));
    }
    const auto vals = ctx.smem().load_warp(access);
    for (int lane = 0; lane < 32; ++lane) {
      out[static_cast<std::size_t>(lane)][static_cast<std::size_t>(e)] =
          vals[static_cast<std::size_t>(lane)];
    }
  }
  return out;
}

void load_vector_segment(gpusim::BlockContext& ctx, const TileGeometry& geom,
                         const gpusim::DeviceBuffer& buffer,
                         std::size_t origin, gpusim::SharedAddr smem_base,
                         int count) {
  KSUM_DCHECK(count % 32 == 0);
  const int chunks = count / 32;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    const int warp = chunk % geom.warps();
    gpusim::GlobalWarpAccess access;
    access.site = KSUM_ACCESS_SITE("vector segment load");
    access.warp = warp;
    for (int lane = 0; lane < 32; ++lane) {
      access.set_lane(lane, buffer.addr_of_float(
                                origin + static_cast<std::size_t>(chunk * 32 +
                                                                  lane)));
    }
    const auto values = ctx.global_load(access);
    gpusim::SharedWarpAccess store;
    store.site = KSUM_ACCESS_SITE("vector segment stage store");
    store.warp = warp;
    for (int lane = 0; lane < 32; ++lane) {
      store.set_lane(lane, smem_base + static_cast<gpusim::SharedAddr>(
                                           (chunk * 32 + lane) * 4));
    }
    ctx.smem().store_warp(store, values);
  }
}

}  // namespace ksum::gpukernels
