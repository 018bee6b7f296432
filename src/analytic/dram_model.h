// Closed-form DRAM transaction model.
//
// The functional simulator executes CTAs sequentially in (by, bx) row-major
// order; this model predicts the DRAM reads/writes that scheduling policy
// produces from working-set reasoning:
//
//  * an A panel (tile_m×K) is fetched once per grid row and survives the
//    whole bx sweep (it is small and hot);
//  * whole-B residency decides whether B streams from DRAM once or once per
//    grid row: B stays cached iff B + one A panel + the row's write traffic
//    fit in the effective L2 capacity;
//  * the M×N intermediate streams (written by GEMM, read+written by the
//    eval pass, read by GEMV) and only avoids DRAM when the whole matrix
//    fits in L2 — the locality loss the paper's Fig. 8b quantifies;
//  * the fused pipeline writes no intermediate, so its DRAM traffic is the
//    inputs plus the tiny vector segments.
//
// Accuracy contract (tested): pipeline-total DRAM within ~35% of the
// functional simulator on mid-size problems, exact asymptotic shape at
// paper scale.
#pragma once

#include <cstddef>

#include "config/device_spec.h"

namespace ksum::analytic {

struct DramTraffic {
  double reads = 0;   // 32-byte transactions
  double writes = 0;

  double total() const { return reads + writes; }
  DramTraffic& operator+=(const DramTraffic& o) {
    reads += o.reads;
    writes += o.writes;
    return *this;
  }
};

struct DramModelInputs {
  std::size_t m = 0, n = 0, k = 0;
  /// Submatrix edges of the tile kernel's CTAs: tile_m sets the A panel and
  /// the grid rows, tile_n the staged reduction's partial columns.
  std::size_t tile_m = 128, tile_n = 128;
  config::DeviceSpec device = config::DeviceSpec::gtx970();
  /// Fraction of L2 usable before conflict/pollution evictions bite.
  double l2_effective_fraction = 0.8;
};

/// Per-kernel traffic (reads/writes attributed to the kernel that performs
/// them; dirty-eviction writebacks are attributed to the producing kernel).
DramTraffic dram_norms_a(const DramModelInputs& in);
DramTraffic dram_norms_b(const DramModelInputs& in);
DramTraffic dram_gemm(const DramModelInputs& in);          // either GEMM
DramTraffic dram_kernel_eval(const DramModelInputs& in);
DramTraffic dram_gemv(const DramModelInputs& in);
/// Fused kernel traffic. With `fuse_norms` the norms kernels never ran, so
/// the fused kernel performs the cold first read of A and B itself and the
/// vecα/vecβ vector loads disappear.
DramTraffic dram_fused(const DramModelInputs& in, bool fuse_norms = false);
DramTraffic dram_fused_staged_extra(const DramModelInputs& in);  // staging IO

}  // namespace ksum::analytic
