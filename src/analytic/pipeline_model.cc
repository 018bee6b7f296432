#include "analytic/pipeline_model.h"

#include "common/error.h"
#include "gpukernels/tile_geometry.h"

namespace ksum::analytic {

using pipelines::Solution;

KernelEstimate PipelineModel::finish(const std::string& name,
                                     const gpusim::Counters& scaled,
                                     const DramTraffic& dram,
                                     const gpusim::LaunchConfig& config,
                                     std::size_t num_ctas,
                                     double mainloop_iters,
                                     const config::KernelGrade& grade,
                                     double useful_flops) {
  KernelEstimate est;
  est.name = name;
  est.scalable = scaled;
  est.cost = gpusim::CostInputs::from_counters(scaled);
  est.cost.dram_transactions = dram.total();
  est.shape.num_ctas = num_ctas;
  est.shape.config = config;
  est.shape.occupancy = gpusim::compute_occupancy(options_.device, config);
  est.shape.mainloop_iters = mainloop_iters;
  est.shape.grade = grade;
  // Only the GEMM-structured kernels have a buffering choice; streaming
  // kernels always overlap.
  est.shape.overlapped_memory =
      mainloop_iters == 0 || options_.mainloop.double_buffer;
  est.useful_flops = useful_flops;
  est.timing = gpusim::estimate_kernel_time(options_.device, options_.timing,
                                            est.cost, est.shape);
  return est;
}

PipelineEstimate PipelineModel::estimate(Solution solution, std::size_t m,
                                         std::size_t n, std::size_t k) {
  KSUM_REQUIRE(m % 128 == 0 && n % 128 == 0 && k % 8 == 0,
               "analytic model needs M, N multiples of 128 and K of 8");
  PipelineEstimate out;
  out.solution = solution;
  out.m = m;
  out.n = n;
  out.k = k;

  const auto cuda_grade = options_.cuda_kernel_grade;
  const auto asm_grade = config::KernelGrade::assembly();
  const double mn = double(m) * double(n);
  const std::size_t tile_ctas = (m / 128) * (n / 128);
  const double iters = double(k) / gpukernels::kTileK;
  DramModelInputs dmi;
  dmi.m = m;
  dmi.n = n;
  dmi.k = k;
  dmi.device = options_.device;

  // Norms — absent when the fused kernel computes them on the fly.
  const bool fused_norms =
      solution == Solution::kFused && options_.fuse_norms;
  if (!fused_norms) {
    const auto& cal = calibrator_.get({KernelKind::kNorms, k, 0});
    out.kernels.push_back(finish(
        "norms_a", scale_counters(cal.per_cta, m / 128), dram_norms_a(dmi),
        cal.config, m / 128, 0, cuda_grade, 2.0 * double(m) * double(k)));
    out.kernels.push_back(finish(
        "norms_b", scale_counters(cal.per_cta, n / 128), dram_norms_b(dmi),
        cal.config, n / 128, 0, cuda_grade, 2.0 * double(n) * double(k)));
  }

  if (solution == Solution::kFused) {
    const KernelKind kind = options_.atomic_reduction
                                ? KernelKind::kFused
                                : KernelKind::kFusedStaged;
    // The atomic kernel's per-CTA stream is independent of N, so its key
    // carries none; the staged variant strides its partials by grid.x.
    CalibrationKey key{kind, k, kind == KernelKind::kFused ? 0 : n,
                       options_.mainloop.layout,
                       options_.mainloop.double_buffer, options_.fuse_norms};
    const auto& cal = calibrator_.get(key);
    DramTraffic dram = dram_fused(dmi, options_.fuse_norms);
    if (!options_.atomic_reduction) {
      dram += dram_fused_staged_extra(dmi);
    }
    out.kernels.push_back(finish(
        "fused_ksum", scale_counters(cal.per_cta, tile_ctas), dram,
        cal.config, tile_ctas, iters, cuda_grade,
        2.0 * mn * double(k) + 8.0 * mn));
    if (!options_.atomic_reduction) {
      const auto& rcal =
          calibrator_.get({KernelKind::kPartialReduce, 8, n});
      out.kernels.push_back(finish(
          "fused_partial_reduce", scale_counters(rcal.per_cta, m / 128),
          DramTraffic{}, rcal.config, m / 128, 0, cuda_grade, 0.0));
    }
  } else {
    const bool cublas = solution == Solution::kCublasUnfused;
    const KernelKind kind =
        cublas ? KernelKind::kGemmCublas : KernelKind::kGemmCudaC;
    CalibrationKey key{kind, k, 0, options_.mainloop.layout,
                       options_.mainloop.double_buffer};
    const auto& cal = calibrator_.get(key);
    out.kernels.push_back(finish(
        cublas ? "gemm_cublas" : "gemm_cudac",
        scale_counters(cal.per_cta, tile_ctas), dram_gemm(dmi), cal.config,
        tile_ctas, iters, cublas ? asm_grade : cuda_grade,
        2.0 * mn * double(k)));

    const auto& ecal = calibrator_.get({KernelKind::kKernelEval, 8, n});
    out.kernels.push_back(finish(
        "kernel_eval", scale_counters(ecal.per_cta, m / 8),
        dram_kernel_eval(dmi), ecal.config, m / 8, 0, cuda_grade, 6.0 * mn));

    const auto& gcal = calibrator_.get({KernelKind::kGemv, 8, n});
    out.kernels.push_back(finish(
        "gemv_summation", scale_counters(gcal.per_cta, m / 128),
        dram_gemv(dmi), gcal.config, m / 128, 0, cuda_grade, 2.0 * mn));
  }

  for (const auto& kest : out.kernels) {
    out.total.fma_lane_ops += kest.cost.fma_lane_ops;
    out.total.alu_lane_ops += kest.cost.alu_lane_ops;
    out.total.sfu_lane_ops += kest.cost.sfu_lane_ops;
    out.total.warp_instructions += kest.cost.warp_instructions;
    out.total.smem_transactions += kest.cost.smem_transactions;
    out.total.l2_transactions += kest.cost.l2_transactions;
    out.total.dram_transactions += kest.cost.dram_transactions;
    out.seconds += kest.timing.seconds(options_.device);
  }
  out.useful_flops = pipelines::pipeline_useful_flops(m, n, k);
  out.flop_efficiency = gpusim::flop_efficiency(options_.device,
                                                out.useful_flops, out.seconds);
  out.energy =
      gpusim::compute_energy(options_.energy, out.total, out.seconds);
  return out;
}

KernelEstimate PipelineModel::estimate_gemm_only(bool cublas, std::size_t m,
                                                 std::size_t n,
                                                 std::size_t k) {
  KSUM_REQUIRE(m % 128 == 0 && n % 128 == 0 && k % 8 == 0,
               "analytic model needs M, N multiples of 128 and K of 8");
  const std::size_t tile_ctas = (m / 128) * (n / 128);
  const double iters = double(k) / gpukernels::kTileK;
  DramModelInputs dmi;
  dmi.m = m;
  dmi.n = n;
  dmi.k = k;
  dmi.device = options_.device;
  const KernelKind kind =
      cublas ? KernelKind::kGemmCublas : KernelKind::kGemmCudaC;
  CalibrationKey key{kind, k, 0, options_.mainloop.layout,
                     options_.mainloop.double_buffer};
  const auto& cal = calibrator_.get(key);
  return finish(cublas ? "gemm_cublas" : "gemm_cudac",
                scale_counters(cal.per_cta, tile_ctas), dram_gemm(dmi),
                cal.config, tile_ctas, iters,
                cublas ? config::KernelGrade::assembly()
                       : options_.cuda_kernel_grade,
                2.0 * double(m) * double(n) * double(k));
}

}  // namespace ksum::analytic
