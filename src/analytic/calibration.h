// Unit-CTA calibration: the per-CTA event counts of every kernel.
//
// Each kernel's per-CTA work is identical across its grid (same access
// stream, shifted base addresses), so every counter except the DRAM-side
// ones scales exactly linearly in the CTA count. Rather than hand-deriving
// dozens of closed-form constants (and drifting from the implementation),
// we *measure* one CTA: run the real tile program, in the tile geometry
// that will run, on the device that will run it, and divide by the CTA
// count of that unit launch. Property tests then assert that scaled
// calibration equals full functional execution — exactly — for the
// scalable counter classes, for every viable geometry on every built-in
// device profile.
//
// DRAM transactions are cache-state dependent and come from
// analytic/dram_model.h instead.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>

#include "config/device_spec.h"
#include "core/kernels.h"
#include "gpukernels/gemm_mainloop.h"
#include "gpusim/counters.h"
#include "gpusim/occupancy.h"

namespace ksum::analytic {

/// Which kernel to calibrate.
enum class KernelKind {
  kNorms,        // per-CTA: 128 points × K coordinates
  kGemmCudaC,    // per-CTA: one tile_m×tile_n tile over K
  kGemmCublas,   // per-CTA: one 128×128 tile over K (black-box model)
  kFused,        // per-CTA: tile + eval + reduction
  kFusedStaged,  // fused with the non-atomic two-pass reduction
  kPartialReduce,  // second pass of the staged reduction: tile_m rows
  kKernelEval,   // per-CTA: 8 rows × N elements
  kGemv,         // per-CTA: 128 rows × N columns
};

struct CalibrationKey {
  KernelKind kind;
  std::size_t k = 0;        // geometric dimension (gemm-shaped kernels)
  std::size_t n = 0;        // row width (eval / gemv) or grid.x (reduce)
  gpukernels::TileLayout layout = gpukernels::TileLayout::kFig5;
  bool double_buffer = true;
  bool fuse_norms = false;  // fused kernels only
  /// Blocking of the tile kernels (CUDA-C GEMM, fused, staged fused and its
  /// partial reduce); the other kinds ignore it.
  gpukernels::TileGeometry geometry{};

  auto operator<=>(const CalibrationKey&) const = default;
};

struct CalibrationResult {
  gpusim::Counters per_cta;     // counters divided by the unit CTA count
  gpusim::LaunchConfig config;  // resources of the launch
};

/// Caches unit runs on one device; cheap to construct, heavier on first use
/// of each key.
class Calibrator {
 public:
  explicit Calibrator(config::DeviceSpec device) : device_(std::move(device)) {}

  const CalibrationResult& get(const CalibrationKey& key);

 private:
  config::DeviceSpec device_;
  std::map<CalibrationKey, CalibrationResult> cache_;
};

/// Scales per-CTA counters to `num_ctas` (kernel_launches stays 1).
gpusim::Counters scale_counters(const gpusim::Counters& per_cta,
                                std::size_t num_ctas);

}  // namespace ksum::analytic
