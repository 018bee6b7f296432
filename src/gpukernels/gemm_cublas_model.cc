#include "gpukernels/gemm_cublas_model.h"

#include "blas/gemm.h"
#include "common/error.h"
#include "common/matrix.h"
#include "gpukernels/gemm_mainloop.h"
#include "gpukernels/tile_geometry.h"
#include "gpusim/access_site.h"

namespace ksum::gpukernels {
namespace {

// Issues warp accesses that touch every 32-byte sector of `count_floats`
// contiguous floats exactly once (32 sectors per access).
void touch_panel(gpusim::BlockContext& ctx,
                 const gpusim::DeviceBuffer& buffer, std::size_t first_float,
                 std::size_t count_floats) {
  KSUM_DCHECK(first_float % 8 == 0 && count_floats % 8 == 0);
  const std::size_t sectors = count_floats / 8;
  for (std::size_t s0 = 0; s0 < sectors; s0 += 32) {
    gpusim::GlobalWarpAccess access;
    std::uint32_t mask = 0;
    for (int lane = 0; lane < 32; ++lane) {
      const std::size_t s = s0 + static_cast<std::size_t>(lane);
      if (s >= sectors) break;
      access.set_lane(lane, buffer.addr_of_float(first_float + s * 8));
      mask |= 1u << lane;
    }
    access.active_mask = mask;
    access.site = KSUM_ACCESS_SITE_ANNOTATED(
        "cublas panel sector probe load", ::ksum::gpusim::kSiteAllowUncoalesced,
        "bandwidth model reads one word per 32-byte sector as a stand-in for "
        "the library's coalesced panel loads; traffic is sector-exact");
    (void)ctx.global_load(access);
  }
}

}  // namespace

gpusim::LaunchConfig cublas_gemm_launch_config() {
  // maxwell_sgemm_128x128 uses 256 threads and ~122 registers; 2 CTAs/SM.
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = kThreads;
  cfg.regs_per_thread = 122;
  cfg.smem_bytes_per_block = 4 * kTileBytes;
  return cfg;
}

gpusim::LaunchResult run_gemm_cublas_model(gpusim::Device& device,
                                           const gpusim::DeviceBuffer& a,
                                           const gpusim::DeviceBuffer& b,
                                           const gpusim::DeviceBuffer& c,
                                           std::size_t m, std::size_t n,
                                           std::size_t k) {
  const GemmGrid geom = gemm_grid(m, n, k);

  // Black-box value computation: the host reference produces the exact C
  // the library would return; the tile program below streams it through the
  // simulated memory system.
  Matrix host_a(m, k, Layout::kRowMajor);
  Matrix host_b(k, n, Layout::kColMajor);
  device.memory().download(a, host_a.span());
  device.memory().download(b, host_b.span());
  Matrix host_c(m, n, Layout::kRowMajor);
  blas::sgemm_blocked(1.0f, host_a, host_b, 0.0f, host_c);

  auto program = [&](gpusim::BlockContext& ctx) {
    const std::size_t row_base = static_cast<std::size_t>(ctx.by()) * kTileM;
    const std::size_t col_base = static_cast<std::size_t>(ctx.bx()) * kTileN;

    // Panel reads: each row (A) / column (B) of the panel is K contiguous
    // floats; every sector touched exactly once.
    ctx.phase("prologue");
    for (std::size_t r = 0; r < kTileM; ++r) {
      touch_panel(ctx, a, (row_base + r) * k, k);
    }
    for (std::size_t col = 0; col < kTileN; ++col) {
      touch_panel(ctx, b, (col_base + col) * k, k);
    }

    // The FMA work of the tile (one warp instruction per 32 lane-FMAs).
    ctx.phase("mainloop");
    ctx.count_fma(static_cast<std::uint64_t>(kTileM) * kTileN * k);
    // Shared-memory traffic of a tuned kernel: 16 conflict-free operand
    // reads per warp per rank-1 step, plus the tile staging stores.
    ctx.count_smem_transactions(
        /*loads=*/static_cast<std::uint64_t>(k) * kWarps * 16,
        /*stores=*/static_cast<std::uint64_t>(k / kTileK) * 64);

    // C tile write-back, coalesced float4 stores of the host-computed
    // values.
    ctx.phase("epilogue");
    for (int warp = 0; warp < kWarps; ++warp) {
      for (int u = 0; u < kMicro; ++u) {
        for (int piece = 0; piece < 2; ++piece) {
          gpusim::GlobalWarpAccess access;
          access.width_bytes = 16;
          access.site = KSUM_ACCESS_SITE("cublas C tile store (float4)");
          access.warp = warp;
          std::array<std::array<float, 4>, 32> values{};
          for (int lane = 0; lane < 32; ++lane) {
            const int tid = warp * 32 + lane;
            const std::size_t row =
                row_base +
                static_cast<std::size_t>(kMicro * thread_ty(tid) + u);
            const std::size_t col =
                col_base + static_cast<std::size_t>(kMicro * thread_tx(tid) +
                                                    piece * 4);
            access.set_lane(lane, c.addr_of_float(row * n + col));
            for (int w = 0; w < 4; ++w) {
              values[static_cast<std::size_t>(lane)]
                    [static_cast<std::size_t>(w)] =
                        host_c.at(row, col + static_cast<std::size_t>(w));
            }
          }
          ctx.global_store_vec4(access, values);
        }
      }
    }
  };

  return device.launch("gemm_cublas", geom.grid, gemm_block_dim(),
                       cublas_gemm_launch_config(), program);
}

}  // namespace ksum::gpukernels
