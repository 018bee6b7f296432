#include "pipelines/pipeline.h"

#include <gtest/gtest.h>

#include "blas/vector_ops.h"

namespace ksum::pipelines {
namespace {

workload::Instance instance_for(std::size_t m, std::size_t n, std::size_t k,
                                std::uint64_t seed = 51) {
  workload::ProblemSpec spec;
  spec.m = m;
  spec.n = n;
  spec.k = k;
  spec.seed = seed;
  spec.bandwidth = 0.9f;
  return workload::make_instance(spec);
}

struct PipelineCase {
  Solution solution;
  std::size_t m, n, k;
};

class PipelineAgreementTest : public ::testing::TestWithParam<PipelineCase> {
};

TEST_P(PipelineAgreementTest, MatchesDirectOracle) {
  const auto p = GetParam();
  const auto inst = instance_for(p.m, p.n, p.k);
  const auto params = core::params_from_spec(inst.spec);
  const Vector ref = core::solve_direct(inst, params);
  const auto report = run_pipeline(p.solution, inst, params);
  EXPECT_LT(blas::max_rel_diff(report.result.span(), ref.span(), 1e-3),
            2e-3)
      << to_string(p.solution);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolutionsAndShapes, PipelineAgreementTest,
    ::testing::Values(
        PipelineCase{Solution::kFused, 128, 128, 16},
        PipelineCase{Solution::kFused, 384, 256, 32},
        PipelineCase{Solution::kCudaUnfused, 128, 128, 16},
        PipelineCase{Solution::kCudaUnfused, 384, 256, 32},
        PipelineCase{Solution::kCublasUnfused, 128, 128, 16},
        PipelineCase{Solution::kCublasUnfused, 384, 256, 32}));

TEST(PipelineReportTest, KernelSequenceMatchesSolution) {
  const auto inst = instance_for(128, 128, 16);
  const auto params = core::params_from_spec(inst.spec);

  const auto fused = run_pipeline(Solution::kFused, inst, params);
  ASSERT_EQ(fused.kernels.size(), 3u);
  EXPECT_EQ(fused.kernels[0].name, "norms_a");
  EXPECT_EQ(fused.kernels[1].name, "norms_b");
  EXPECT_EQ(fused.kernels[2].name, "fused_ksum");

  const auto cuda = run_pipeline(Solution::kCudaUnfused, inst, params);
  ASSERT_EQ(cuda.kernels.size(), 5u);
  EXPECT_EQ(cuda.kernels[2].name, "gemm_cudac");
  EXPECT_EQ(cuda.kernels[3].name, "kernel_eval");
  EXPECT_EQ(cuda.kernels[4].name, "gemv_summation");

  const auto cublas = run_pipeline(Solution::kCublasUnfused, inst, params);
  ASSERT_EQ(cublas.kernels.size(), 5u);
  EXPECT_EQ(cublas.kernels[2].name, "gemm_cublas");
}

TEST(PipelineReportTest, TimingAndEnergyArePositive) {
  const auto inst = instance_for(256, 128, 16);
  const auto params = core::params_from_spec(inst.spec);
  const auto report = run_pipeline(Solution::kFused, inst, params);
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_GT(report.energy.total(), 0.0);
  EXPECT_GT(report.flop_efficiency, 0.0);
  EXPECT_LT(report.flop_efficiency, 1.0);
  double kernel_seconds = 0;
  for (const auto& k : report.kernels) {
    kernel_seconds += k.timing.seconds(RunOptions{}.device);
  }
  EXPECT_LE(kernel_seconds, report.seconds + 1e-12);
}

TEST(PipelineReportTest, FusedAvoidsIntermediateDram) {
  const auto inst = instance_for(384, 256, 16);
  const auto params = core::params_from_spec(inst.spec);
  const auto fused = run_pipeline(Solution::kFused, inst, params);
  const auto unfused = run_pipeline(Solution::kCublasUnfused, inst, params);
  EXPECT_LT(fused.total.dram_total_transactions(),
            unfused.total.dram_total_transactions() / 2);
}

TEST(PipelineReportTest, StagedReductionOptionPropagates) {
  const auto inst = instance_for(256, 256, 16);
  const auto params = core::params_from_spec(inst.spec);
  RunOptions options;
  options.atomic_reduction = false;
  const auto report = run_pipeline(Solution::kFused, inst, params, options);
  ASSERT_EQ(report.kernels.size(), 4u);
  EXPECT_EQ(report.kernels[3].name, "fused_partial_reduce");
  const Vector ref = core::solve_direct(inst, params);
  EXPECT_LT(blas::max_rel_diff(report.result.span(), ref.span(), 1e-3),
            2e-3);
}

TEST(PipelineReportTest, MainloopDepthIsPaperEquivalentForEveryTileK) {
  // The timing model counts main-loop iterations in rank-8 steps whatever
  // the geometry's tileK. Counting a candidate's own (shallower or deeper)
  // K-slices would let a small tileK amortise the prologue over more
  // iterations and look faster for identical fma, smem and L2 counts.
  const auto inst = instance_for(128, 128, 16);
  const auto params = core::params_from_spec(inst.spec);
  for (const int tile_k : {4, 8, 16}) {
    RunOptions options;
    options.mainloop.geometry = {64, 64, tile_k, 8, 8, 8};
    for (const Solution solution :
         {Solution::kFused, Solution::kCudaUnfused}) {
      const auto report = run_pipeline(solution, inst, params, options);
      ASSERT_GE(report.kernels.size(), 3u);
      const auto& tile_kernel = report.kernels[2];  // after the two norms
      EXPECT_EQ(tile_kernel.name, solution == Solution::kFused
                                      ? "fused_ksum"
                                      : "gemm_cudac");
      SCOPED_TRACE(tile_kernel.name + " tileK=" + std::to_string(tile_k));
      EXPECT_EQ(tile_kernel.shape.mainloop_iters, 16.0 / 8.0);
    }
  }
}

TEST(PipelineReportTest, UsefulFlopsAccounting) {
  EXPECT_DOUBLE_EQ(
      pipeline_useful_flops(128, 128, 8),
      2.0 * 128 * 128 * 8 + 8.0 * 128 * 128 + 2.0 * (128 + 128) * 8);
}

}  // namespace
}  // namespace ksum::pipelines
