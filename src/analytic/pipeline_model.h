// Full-pipeline analytic estimates: the counts → timing → energy chain of
// pipelines::run_pipeline without functional execution, valid up to the
// paper's largest sweeps (M = 524288) in microseconds instead of hours.
// The tile kernels are priced in the options' tile geometry on the options'
// device, so the same model ranks the autotuner's candidates. Every bench
// binary drives this; tests pin it against the functional simulator at
// small sizes, for every viable geometry on every built-in profile.
#pragma once

#include <vector>

#include "analytic/calibration.h"
#include "analytic/dram_model.h"
#include "pipelines/pipeline.h"

namespace ksum::analytic {

struct KernelEstimate {
  std::string name;
  gpusim::CostInputs cost;      // includes modelled DRAM
  gpusim::Counters scalable;    // the exactly-scaled counter classes
  gpusim::LaunchShape shape;
  gpusim::TimingBreakdown timing;
  double useful_flops = 0;
};

struct PipelineEstimate {
  pipelines::Solution solution = pipelines::Solution::kFused;
  std::size_t m = 0, n = 0, k = 0;
  std::vector<KernelEstimate> kernels;
  gpusim::CostInputs total;
  double seconds = 0;
  double useful_flops = 0;
  double flop_efficiency = 0;
  gpusim::EnergyBreakdown energy;

  double l2_transactions() const { return total.l2_transactions; }
  double dram_transactions() const { return total.dram_transactions; }
};

class PipelineModel {
 public:
  explicit PipelineModel(pipelines::RunOptions options = {})
      : options_(std::move(options)), calibrator_(options_.device) {}

  /// Estimate on a shape already aligned to the options' geometry
  /// (gpukernels::solve_alignment); throws ksum::Error otherwise.
  PipelineEstimate estimate(pipelines::Solution solution, std::size_t m,
                            std::size_t n, std::size_t k);

  /// Estimate of pipelines::solve on any shape: zero-padded first, exactly
  /// as solve pads it for the options' geometry.
  PipelineEstimate estimate_solve(pipelines::Solution solution, std::size_t m,
                                  std::size_t n, std::size_t k);

  /// Estimate for the GEMM kernel alone (Fig. 7).
  KernelEstimate estimate_gemm_only(bool cublas, std::size_t m, std::size_t n,
                                    std::size_t k);

  const pipelines::RunOptions& options() const { return options_; }

 private:
  void require_aligned(std::size_t m, std::size_t n, std::size_t k) const;
  /// The tile geometry `solution`'s GEMM-shaped kernel runs: the options'
  /// geometry, except the cuBLAS model, which keeps the paper tiling.
  gpukernels::TileGeometry tile_of(pipelines::Solution solution) const;
  DramModelInputs dram_inputs(pipelines::Solution solution, std::size_t m,
                              std::size_t n, std::size_t k) const;

  KernelEstimate finish(const std::string& name,
                        const gpusim::Counters& scaled,
                        const DramTraffic& dram,
                        const gpusim::LaunchConfig& config,
                        std::size_t num_ctas, double mainloop_iters,
                        const config::KernelGrade& grade,
                        double useful_flops);

  pipelines::RunOptions options_;
  Calibrator calibrator_;
};

}  // namespace ksum::analytic
