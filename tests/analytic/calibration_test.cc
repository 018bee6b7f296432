// The analytic model's core contract: unit-CTA calibration scaled by the
// CTA count equals full functional execution EXACTLY for every
// grid-uniform counter class.
#include "analytic/calibration.h"

#include <gtest/gtest.h>

#include "analytic/pipeline_model.h"
#include "pipelines/pipeline.h"

namespace ksum::analytic {
namespace {

using pipelines::Solution;

workload::Instance instance_for(std::size_t m, std::size_t n, std::size_t k) {
  workload::ProblemSpec spec;
  spec.m = m;
  spec.n = n;
  spec.k = k;
  spec.seed = 61;
  return workload::make_instance(spec);
}

struct ExactCase {
  Solution solution;
  std::size_t m, n, k;
};

class ExactCountTest : public ::testing::TestWithParam<ExactCase> {};

TEST_P(ExactCountTest, ScaledCalibrationEqualsFunctionalExactly) {
  const auto p = GetParam();
  const auto inst = instance_for(p.m, p.n, p.k);
  const auto params = core::params_from_spec(inst.spec);
  const auto functional = pipelines::run_pipeline(p.solution, inst, params);

  PipelineModel model;
  const auto estimate = model.estimate(p.solution, p.m, p.n, p.k);

  ASSERT_EQ(functional.kernels.size(), estimate.kernels.size());
  for (std::size_t i = 0; i < estimate.kernels.size(); ++i) {
    const auto& f = functional.kernels[i].counters;
    const auto& e = estimate.kernels[i].scalable;
    SCOPED_TRACE(estimate.kernels[i].name);
    EXPECT_EQ(e.fma_ops, f.fma_ops);
    EXPECT_EQ(e.alu_ops, f.alu_ops);
    EXPECT_EQ(e.sfu_ops, f.sfu_ops);
    EXPECT_EQ(e.warp_instructions, f.warp_instructions);
    EXPECT_EQ(e.smem_load_requests, f.smem_load_requests);
    EXPECT_EQ(e.smem_store_requests, f.smem_store_requests);
    EXPECT_EQ(e.smem_load_transactions, f.smem_load_transactions);
    EXPECT_EQ(e.smem_store_transactions, f.smem_store_transactions);
    EXPECT_EQ(e.smem_bank_conflicts, f.smem_bank_conflicts);
    EXPECT_EQ(e.global_load_requests, f.global_load_requests);
    EXPECT_EQ(e.global_store_requests, f.global_store_requests);
    EXPECT_EQ(e.atomic_requests, f.atomic_requests);
    EXPECT_EQ(e.l2_read_transactions, f.l2_read_transactions);
    EXPECT_EQ(e.l2_write_transactions, f.l2_write_transactions);
    EXPECT_EQ(e.barriers, f.barriers);
    EXPECT_EQ(e.ctas_launched, f.ctas_launched);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SolutionsAndShapes, ExactCountTest,
    ::testing::Values(ExactCase{Solution::kFused, 128, 128, 16},
                      ExactCase{Solution::kFused, 384, 256, 32},
                      ExactCase{Solution::kFused, 256, 384, 8},
                      ExactCase{Solution::kCudaUnfused, 128, 128, 16},
                      ExactCase{Solution::kCudaUnfused, 256, 256, 32},
                      ExactCase{Solution::kCublasUnfused, 128, 128, 16},
                      ExactCase{Solution::kCublasUnfused, 384, 128, 24}));

TEST(ExactCountFusedNormsTest, ScaledCalibrationEqualsFunctionalExactly) {
  const auto inst = instance_for(256, 384, 16);
  const auto params = core::params_from_spec(inst.spec);
  pipelines::RunOptions options;
  options.fuse_norms = true;
  const auto functional =
      pipelines::run_pipeline(Solution::kFused, inst, params, options);
  PipelineModel model(options);
  const auto estimate = model.estimate(Solution::kFused, 256, 384, 16);
  ASSERT_EQ(functional.kernels.size(), estimate.kernels.size());
  ASSERT_EQ(estimate.kernels.size(), 1u);  // just the fused kernel
  const auto& f = functional.kernels[0].counters;
  const auto& e = estimate.kernels[0].scalable;
  EXPECT_EQ(e.fma_ops, f.fma_ops);
  EXPECT_EQ(e.smem_load_transactions, f.smem_load_transactions);
  EXPECT_EQ(e.smem_store_transactions, f.smem_store_transactions);
  EXPECT_EQ(e.global_load_requests, f.global_load_requests);
  EXPECT_EQ(e.l2_read_transactions, f.l2_read_transactions);
  EXPECT_EQ(e.barriers, f.barriers);
}

TEST(CalibrationTest, CacheReturnsSameObject) {
  Calibrator calibrator;
  const CalibrationKey key{KernelKind::kGemmCudaC, 16, 0};
  const auto& a = calibrator.get(key);
  const auto& b = calibrator.get(key);
  EXPECT_EQ(&a, &b);
}

TEST(CalibrationTest, DistinctKeysDiffer) {
  Calibrator calibrator;
  const auto& k16 = calibrator.get({KernelKind::kGemmCudaC, 16, 0});
  const auto& k32 = calibrator.get({KernelKind::kGemmCudaC, 32, 0});
  EXPECT_GT(k32.per_cta.fma_ops, k16.per_cta.fma_ops);
}

TEST(CalibrationTest, ScaleCountersIsLinear) {
  gpusim::Counters per_cta;
  per_cta.fma_ops = 7;
  per_cta.l2_read_transactions = 3;
  per_cta.barriers = 2;
  const auto scaled = scale_counters(per_cta, 10);
  EXPECT_EQ(scaled.fma_ops, 70u);
  EXPECT_EQ(scaled.l2_read_transactions, 30u);
  EXPECT_EQ(scaled.barriers, 20u);
  EXPECT_EQ(scaled.ctas_launched, 10u);
  EXPECT_EQ(scaled.kernel_launches, 1u);
}

TEST(CalibrationTest, StagedFusedDependsOnN) {
  Calibrator calibrator;
  const auto& n256 = calibrator.get({KernelKind::kFusedStaged, 16, 256});
  const auto& n512 = calibrator.get({KernelKind::kFusedStaged, 16, 512});
  // Wider grids stride the staging stores further apart → more L2 write
  // transactions per CTA.
  EXPECT_GE(n512.per_cta.l2_write_transactions,
            n256.per_cta.l2_write_transactions);
}

TEST(CalibrationTest, AtomicFusedIgnoresN) {
  // The atomic fused kernel calibrates one CTA on a fixed 128×128
  // workspace, so the row width cannot change its per-CTA stream — which
  // is why PipelineModel keys it with n = 0.
  Calibrator calibrator;
  const auto& n0 = calibrator.get({KernelKind::kFused, 16, 0});
  const auto& n512 = calibrator.get({KernelKind::kFused, 16, 512});
  EXPECT_NE(&n0, &n512);
  EXPECT_EQ(n0.per_cta, n512.per_cta);
}

}  // namespace
}  // namespace ksum::analytic
