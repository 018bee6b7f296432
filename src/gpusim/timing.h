// Bounded-resource kernel timing model.
//
// Inputs are architectural event counts (from the functional simulator's
// Counters, or from the analytic closed forms for large sweeps) plus the
// launch geometry. Output is a cycle estimate with a per-resource breakdown:
//
//   cycles = max(compute, smem, l2, dram) + launch + waves·dispatch
//
// where `compute` derates peak FMA issue by the code grade, the
// prologue-amortisation factor iters/(iters+prologue_equiv), the tail-wave
// fill, and a penalty when occupancy allows only one CTA per SM. See
// config/timing_spec.h for the grade constants and DESIGN.md §5 for the
// calibration story.
#pragma once

#include <string>

#include "config/device_spec.h"
#include "config/timing_spec.h"
#include "gpusim/counters.h"
#include "gpusim/occupancy.h"

namespace ksum::gpusim {

/// Event totals as doubles so analytic sweeps (M up to 524288) can feed the
/// same model as functional runs.
struct CostInputs {
  double fma_lane_ops = 0;
  double alu_lane_ops = 0;
  double sfu_lane_ops = 0;
  double warp_instructions = 0;
  double smem_transactions = 0;
  double l1_transactions = 0;  // only non-zero with cache_globals_in_l1
  double l2_transactions = 0;
  double dram_transactions = 0;

  static CostInputs from_counters(const Counters& c);
};

/// Launch geometry the model needs beyond raw event counts.
struct LaunchShape {
  std::size_t num_ctas = 1;
  LaunchConfig config;
  Occupancy occupancy;
  /// Main-loop iterations per CTA (mainloop_iters_for_k for the
  /// GEMM-structured kernels); amortises the prologue/epilogue. Use 0 for
  /// kernels with no main loop (pure streaming passes) — they take the
  /// grade's streaming path.
  double mainloop_iters = 0;
  config::KernelGrade grade;
  /// Double buffering (paper §III-A) lets tile loads overlap the rank-8
  /// updates; without it the compute and memory phases serialise and the
  /// kernel pays max → sum on the bound resources.
  bool overlapped_memory = true;
};

/// LaunchShape::mainloop_iters of a main loop over K: paper-equivalent
/// rank-8 steps, whatever the tile's own K depth. The prologue then costs
/// the same for every tile geometry, so a shallow tileK cannot look cheaper
/// through a change of unit alone.
inline double mainloop_iters_for_k(std::size_t k) {
  return static_cast<double>(k) / 8.0;
}

struct TimingBreakdown {
  double compute_cycles = 0;
  double smem_cycles = 0;
  double l2_cycles = 0;
  double dram_cycles = 0;
  double overhead_cycles = 0;
  double total_cycles = 0;
  std::string bound;  // which resource was the max

  double seconds(const config::DeviceSpec& spec) const {
    return total_cycles / (spec.core_clock_ghz * 1e9);
  }
};

TimingBreakdown estimate_kernel_time(const config::DeviceSpec& device,
                                     const config::TimingSpec& timing,
                                     const CostInputs& cost,
                                     const LaunchShape& shape);

/// FLOP efficiency the way the paper's Table II reports it: useful FLOPs
/// over peak × time.
double flop_efficiency(const config::DeviceSpec& device, double useful_flops,
                       double seconds);

}  // namespace ksum::gpusim
