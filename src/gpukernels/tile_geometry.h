// Blocking of the paper's §III-A GEMM structure.
//
//   submatrixC : tileM×tileN, one per blockX×blockY-thread CTA
//   tileA      : tileM×tileK (a K-slice of the CTA's A rows)
//   tileB      : tileK×tileN (a K-slice of the CTA's B columns)
//   microtileC : micro×micro accumulators per thread
//   rank-tileK update per main-loop iteration, K/tileK iterations
//
// The paper fixes one operating point for the GTX 970 — 128×128 submatrixC,
// 16×16 threads, 8×8 microtiles, rank-8 updates — and the `k…` constants
// below record it as the validated default. The runtime `TileGeometry`
// struct generalises the same structure so the autotuner (src/tune/) can
// execute alternative blockings on the simulated device; with the default
// geometry every kernel is instruction-for-instruction identical to the
// constant-based code it replaced.
//
// The kernels require M and N to be multiples of tileM/tileN and K a
// multiple of tileK — ragged shapes are handled by exact zero-padding in
// pipelines::solve (workload/padding.h).
#pragma once

#include <compare>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.h"
#include "gpusim/device.h"
#include "gpusim/occupancy.h"

namespace ksum::gpukernels {

inline constexpr int kTileM = 128;     // rows of submatrixC / tileA
inline constexpr int kTileN = 128;     // cols of submatrixC / tileB
inline constexpr int kTileK = 8;       // rank-8 update depth
inline constexpr int kBlockX = 16;     // thread block x
inline constexpr int kBlockY = 16;     // thread block y
inline constexpr int kThreads = kBlockX * kBlockY;  // 256
inline constexpr int kMicro = 8;       // microtileC is kMicro×kMicro
inline constexpr int kWarps = kThreads / 32;        // 8
inline constexpr int kTileFloats = kTileM * kTileK;  // 1024 per tile
inline constexpr std::size_t kTileBytes = kTileFloats * 4;  // 4 KB

/// Capacity bounds of the runtime geometry: the kernels stage operands in
/// fixed-size per-lane arrays, so a microtile edge may not exceed kMaxMicro
/// and a K-slice may not exceed kMaxTileK elements. (The 255-register
/// architectural cap rejects micro > 12 long before the array bound does.)
inline constexpr int kMaxMicro = 16;
inline constexpr int kMaxTileK = 32;

/// Shared memory budget: 4 tile buffers (A0/A1/B0/B1, double-buffered) plus
/// a 128-float weight segment and 2×128-float norm segments used only by the
/// fused kernel. The reduction scratch T reuses the A buffers (paper §III-C).
inline constexpr std::uint32_t kSmemGemmBytes = 4 * kTileBytes;   // 16 KB
inline constexpr std::uint32_t kSmemFusedBytes =
    kSmemGemmBytes + 3 * kTileM * 4;                              // +1.5 KB

/// Register budget per thread: 64 accumulators + 16 operand registers +
/// bookkeeping — the paper's "96 to 128 registers"; 2 CTAs/SM on a 64K SM.
inline constexpr int kRegsPerThread = 128;

/// Runtime tile geometry. The default-constructed value is the paper's
/// operating point; `structural_violations()` spells out the closure rules
/// a candidate must satisfy for the generalised kernels to be well formed
/// (the resource-level pruning — registers, shared memory, occupancy —
/// lives in src/tune/, where the device spec is known).
struct TileGeometry {
  int tile_m = kTileM;
  int tile_n = kTileN;
  int tile_k = kTileK;
  int block_x = kBlockX;
  int block_y = kBlockY;
  int micro = kMicro;

  /// The paper's validated default (identical to `TileGeometry{}`).
  static TileGeometry paper() { return TileGeometry{}; }

  auto operator<=>(const TileGeometry&) const = default;

  bool is_paper() const { return *this == TileGeometry{}; }

  int threads() const { return block_x * block_y; }
  int warps() const { return threads() / 32; }
  /// Warps per tile-loading half (tileA half / tileB half).
  int loader_warps() const { return warps() / 2; }

  int tile_a_floats() const { return tile_m * tile_k; }
  int tile_b_floats() const { return tile_n * tile_k; }
  std::size_t tile_a_bytes() const {
    return static_cast<std::size_t>(tile_a_floats()) * 4;
  }
  std::size_t tile_b_bytes() const {
    return static_cast<std::size_t>(tile_b_floats()) * 4;
  }

  /// Microtiles along one tile edge (16 for the paper's tiles).
  int microtiles_a() const { return tile_m / micro; }  // == block_y
  int microtiles_b() const { return tile_n / micro; }  // == block_x

  /// Declared register demand: micro² accumulators + 2·micro operands +
  /// the paper's 48-register bookkeeping/latency margin (→ 128 at micro=8).
  int regs_per_thread() const { return micro * micro + 2 * micro + 48; }

  /// Shared-memory footprint of a launch: the tile buffers (doubled when
  /// double-buffering) plus the fused kernel's norm/weight segments.
  std::uint32_t smem_bytes(bool fused, bool double_buffer) const {
    const std::size_t tiles = tile_a_bytes() + tile_b_bytes();
    std::size_t total = double_buffer ? 2 * tiles : tiles;
    if (fused) {
      total += static_cast<std::size_t>(tile_m + 2 * tile_n) * 4;
    }
    return static_cast<std::uint32_t>(total);
  }

  /// "128x128x8/16x16/8" — tile dims / block dims / microtile edge.
  std::string to_string() const;

  /// Every violated structural closure rule, in a fixed order (empty =
  /// the generalised kernels can execute this geometry).
  std::vector<std::string> structural_violations() const;

  bool structurally_valid() const { return structural_violations().empty(); }

  /// Throws ksum::Error with the first violation.
  void validate() const;
};

/// The shape pipelines::solve zero-pads a problem to under geometry `g`:
/// M and N to lcm(tile edge, 128), because the non-tile kernels (norms,
/// eval, GEMV) keep 128-row CTAs, and K to lcm(tileK, 8).
struct SolveAlignment {
  std::size_t m = 0, n = 0, k = 0;
};

inline SolveAlignment solve_alignment(const TileGeometry& g) {
  const auto lcm = [](int edge, std::size_t base) {
    return std::lcm(static_cast<std::size_t>(edge), base);
  };
  return {lcm(g.tile_m, 128), lcm(g.tile_n, 128), lcm(g.tile_k, 8)};
}

struct GemmGrid {
  gpusim::GridDim grid;
  std::size_t tiles_k = 0;  // main-loop iterations (K / tileK)
};

inline GemmGrid gemm_grid(const TileGeometry& g, std::size_t m,
                          std::size_t n, std::size_t k) {
  KSUM_REQUIRE(m % static_cast<std::size_t>(g.tile_m) == 0,
               "M must be a multiple of " + std::to_string(g.tile_m));
  KSUM_REQUIRE(n % static_cast<std::size_t>(g.tile_n) == 0,
               "N must be a multiple of " + std::to_string(g.tile_n));
  KSUM_REQUIRE(k % static_cast<std::size_t>(g.tile_k) == 0,
               "K must be a multiple of " + std::to_string(g.tile_k));
  GemmGrid out;
  out.grid.x = static_cast<int>(n / static_cast<std::size_t>(g.tile_n));
  out.grid.y = static_cast<int>(m / static_cast<std::size_t>(g.tile_m));
  out.tiles_k = k / static_cast<std::size_t>(g.tile_k);
  return out;
}

inline GemmGrid gemm_grid(std::size_t m, std::size_t n, std::size_t k) {
  return gemm_grid(TileGeometry{}, m, n, k);
}

inline gpusim::BlockDim gemm_block_dim(const TileGeometry& g) {
  return {g.block_x, g.block_y};
}

inline gpusim::BlockDim gemm_block_dim() {
  return gemm_block_dim(TileGeometry{});
}

inline gpusim::LaunchConfig gemm_launch_config(const TileGeometry& g,
                                               bool fused,
                                               bool double_buffer) {
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = g.threads();
  cfg.regs_per_thread = g.regs_per_thread();
  cfg.smem_bytes_per_block = g.smem_bytes(fused, double_buffer);
  return cfg;
}

inline gpusim::LaunchConfig gemm_launch_config(bool fused) {
  return gemm_launch_config(TileGeometry{}, fused, /*double_buffer=*/true);
}

}  // namespace ksum::gpukernels
