#include "gpukernels/gemm_mainloop.h"

#include "common/error.h"
#include "gpusim/access_site.h"

namespace ksum::gpukernels {
namespace {

// The two operand tiles' offset tables, built once per run_gemm_mainloop.
struct TileOffsets {
  TileOffsetTable a;
  TileOffsetTable b;
};

// One rank-tileK update: every warp reads its A/B operands for step k
// through the bank model and feeds the micro² per-thread FMAs. Thread
// (tx, ty) reads operand u of tileA track micro·ty + u and operand t of
// tileB track micro·tx + t.
void rank_update_step(gpusim::BlockContext& ctx, const TileGeometry& g,
                      const TileOffsets& offsets, gpusim::SharedAddr a_base,
                      gpusim::SharedAddr b_base, int k,
                      BlockAccumulators& acc) {
  const std::size_t micro2 = static_cast<std::size_t>(g.micro * g.micro);
  for (int warp = 0; warp < g.warps(); ++warp) {
    // Slots [lane][0, micro) are written by the loads below before the FMAs
    // read them.
    OperandLanes a_ops;
    OperandLanes b_ops;
    // First track of each lane's microtile in tileA (row ty) and tileB
    // (column tx).
    std::array<int, 32> a_track;
    std::array<int, 32> b_track;
    for (int lane = 0; lane < 32; ++lane) {
      const int tid = warp * 32 + lane;
      a_track[static_cast<std::size_t>(lane)] = g.micro * thread_ty(tid, g);
      b_track[static_cast<std::size_t>(lane)] = g.micro * thread_tx(tid, g);
    }

    for (int u = 0; u < g.micro; ++u) {
      gpusim::SharedWarpAccess access;
      access.site = KSUM_ACCESS_SITE("mainloop A operand load");
      access.warp = warp;
      for (int lane = 0; lane < 32; ++lane) {
        access.set_lane(
            lane, a_base + offsets.a.at(
                               a_track[static_cast<std::size_t>(lane)] + u, k));
      }
      const auto vals = ctx.smem().load_warp(access);
      for (int lane = 0; lane < 32; ++lane) {
        a_ops[static_cast<std::size_t>(lane)][static_cast<std::size_t>(u)] =
            vals[static_cast<std::size_t>(lane)];
      }
    }
    for (int t = 0; t < g.micro; ++t) {
      gpusim::SharedWarpAccess access;
      access.site = KSUM_ACCESS_SITE("mainloop B operand load");
      access.warp = warp;
      for (int lane = 0; lane < 32; ++lane) {
        access.set_lane(
            lane, b_base + offsets.b.at(
                               b_track[static_cast<std::size_t>(lane)] + t, k));
      }
      const auto vals = ctx.smem().load_warp(access);
      for (int lane = 0; lane < 32; ++lane) {
        b_ops[static_cast<std::size_t>(lane)][static_cast<std::size_t>(t)] =
            vals[static_cast<std::size_t>(lane)];
      }
    }

    for (int lane = 0; lane < 32; ++lane) {
      const std::size_t tid = static_cast<std::size_t>(warp * 32 + lane);
      float* microtile = acc.data() + tid * micro2;
      const float* a_lane = a_ops[static_cast<std::size_t>(lane)].data();
      const float* b_lane = b_ops[static_cast<std::size_t>(lane)].data();
      for (int u = 0; u < g.micro; ++u) {
        const float aval = a_lane[u];
        for (int t = 0; t < g.micro; ++t) {
          microtile[u * g.micro + t] += aval * b_lane[t];
        }
      }
    }
    ctx.count_fma(static_cast<std::uint64_t>(g.micro * g.micro * 32));
    ctx.count_alu(32);  // loop/address bookkeeping of the steady state
  }
}

void compute_tile(gpusim::BlockContext& ctx, const TileGeometry& g,
                  const TileOffsets& offsets, gpusim::SharedAddr a_base,
                  gpusim::SharedAddr b_base, BlockAccumulators& acc) {
  for (int k = 0; k < g.tile_k; ++k) {
    rank_update_step(ctx, g, offsets, a_base, b_base, k, acc);
  }
}

}  // namespace

SmemMap make_smem_map(const TileGeometry& g, bool double_buffer) {
  SmemMap m;
  const auto ta = static_cast<gpusim::SharedAddr>(g.tile_a_bytes());
  const auto tb = static_cast<gpusim::SharedAddr>(g.tile_b_bytes());
  m.a0 = 0;
  if (double_buffer) {
    m.a1 = ta;
    m.b0 = 2 * ta;
    m.b1 = 2 * ta + tb;
    m.norm_a = 2 * ta + 2 * tb;
  } else {
    // A1 aliases B0: the fused epilogue only uses it as reduction scratch,
    // after the main loop has consumed the tiles.
    m.a1 = ta;
    m.b0 = ta;
    m.b1 = ta + tb;  // unused in single-buffer mode
    m.norm_a = ta + tb;
  }
  m.norm_b =
      m.norm_a + static_cast<gpusim::SharedAddr>(g.tile_m) * 4;
  m.weights =
      m.norm_b + static_cast<gpusim::SharedAddr>(g.tile_n) * 4;
  return m;
}

void run_gemm_mainloop(gpusim::BlockContext& ctx, const TileSource& a,
                       const TileSource& b, std::size_t k_total,
                       const MainloopConfig& config, const SmemMap& smem,
                       BlockAccumulators& acc,
                       TrackNormAccumulators* a_norms,
                       TrackNormAccumulators* b_norms) {
  const TileGeometry& g = config.geometry;
  KSUM_REQUIRE(k_total % static_cast<std::size_t>(g.tile_k) == 0,
               "K must be a multiple of " + std::to_string(g.tile_k));
  KSUM_CHECK(acc.size() == static_cast<std::size_t>(g.threads()) *
                               static_cast<std::size_t>(g.micro * g.micro));
  const std::size_t iters = k_total / static_cast<std::size_t>(g.tile_k);
  const int lw = g.loader_warps();
  const TileOffsets offsets{
      make_tile_offset_table(config.layout, g, g.tile_m),
      make_tile_offset_table(config.layout, g, g.tile_n)};

  if (config.double_buffer) {
    // Algorithm 2: prologue load, then each iteration prefetches tile i+1
    // into the other buffer while computing tile i, one barrier apiece.
    ctx.phase("prologue");
    load_tile(ctx, g, a, 0, smem.a0, offsets.a, /*warp_base=*/0, a_norms);
    load_tile(ctx, g, b, 0, smem.b0, offsets.b, /*warp_base=*/lw, b_norms);
    ctx.barrier();
    ctx.phase("mainloop");
    for (std::size_t i = 0; i < iters; ++i) {
      const bool even = (i % 2 == 0);
      const gpusim::SharedAddr a_cur = even ? smem.a0 : smem.a1;
      const gpusim::SharedAddr b_cur = even ? smem.b0 : smem.b1;
      if (i + 1 < iters) {
        const gpusim::SharedAddr a_next = even ? smem.a1 : smem.a0;
        const gpusim::SharedAddr b_next = even ? smem.b1 : smem.b0;
        const std::size_t k_next = (i + 1) * static_cast<std::size_t>(g.tile_k);
        load_tile(ctx, g, a, k_next, a_next, offsets.a, 0, a_norms);
        load_tile(ctx, g, b, k_next, b_next, offsets.b, lw, b_norms);
      }
      compute_tile(ctx, g, offsets, a_cur, b_cur, acc);
      ctx.barrier();
    }
  } else {
    // Single-buffered ablation: load/compute strictly alternate and every
    // iteration pays two barriers. The tile loads are part of the steady
    // state here, so the whole loop is the main loop phase.
    ctx.phase("mainloop");
    for (std::size_t i = 0; i < iters; ++i) {
      const std::size_t k0 = i * static_cast<std::size_t>(g.tile_k);
      load_tile(ctx, g, a, k0, smem.a0, offsets.a, 0, a_norms);
      load_tile(ctx, g, b, k0, smem.b0, offsets.b, lw, b_norms);
      ctx.barrier();
      compute_tile(ctx, g, offsets, smem.a0, smem.b0, acc);
      ctx.barrier();
    }
  }
}

}  // namespace ksum::gpukernels
