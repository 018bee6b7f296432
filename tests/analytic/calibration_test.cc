// The analytic model's core contract: unit-CTA calibration scaled by the
// CTA count equals full functional execution EXACTLY for every
// grid-uniform counter class — for every viable tile geometry on every
// built-in device profile, with every geometry's V checked against the
// host oracle.
#include "analytic/calibration.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "analytic/pipeline_model.h"
#include "blas/vector_ops.h"
#include "common/error.h"
#include "config/profiles/device_profile.h"
#include "core/exact.h"
#include "pipelines/pipeline.h"
#include "tune/tile_search.h"

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

/// Runs `solution` functionally and through the model under `options`,
/// and requires every scalable counter of every kernel to agree exactly.
void expect_exact_counts(Solution solution, std::size_t m, std::size_t n,
                         std::size_t k,
                         const pipelines::RunOptions& options = {}) {
  const auto inst = instance_for(m, n, k);
  const auto params = core::params_from_spec(inst.spec);
  const auto functional =
      pipelines::run_pipeline(solution, inst, params, options);

  PipelineModel model(options);
  const auto estimate = model.estimate(solution, m, n, k);

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
    EXPECT_EQ(estimate.kernels[i].shape.config.threads_per_block,
              functional.kernels[i].shape.config.threads_per_block);
    EXPECT_EQ(estimate.kernels[i].shape.mainloop_iters,
              functional.kernels[i].shape.mainloop_iters);
  }

  // Exact counts are only worth having for a geometry that computes V.
  const auto oracle = core::solve_direct(inst, params);
  EXPECT_LT(blas::max_rel_diff(functional.result.span(), oracle.span(), 1e-2),
            5e-3);
}

struct ExactCase {
  Solution solution;
  std::size_t m, n, k;
};

class ExactCountTest : public ::testing::TestWithParam<ExactCase> {};

TEST_P(ExactCountTest, ScaledCalibrationEqualsFunctionalExactly) {
  const auto p = GetParam();
  expect_exact_counts(p.solution, p.m, p.n, p.k);
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

/// One viable tile geometry on one built-in profile.
struct GeometryCase {
  std::string profile;
  Solution solution;
  gpukernels::TileGeometry geometry;
};

void PrintTo(const GeometryCase& c, std::ostream* os) {
  *os << c.profile << '_' << pipelines::to_string(c.solution) << '_'
      << c.geometry.to_string();
}

/// Every candidate the tuner may pick (24/24/26 on gtx970, titanx-maxwell
/// and modern) under both tile-kernel pipelines.
std::vector<GeometryCase> every_viable_geometry() {
  std::vector<GeometryCase> cases;
  for (const auto& name : config::profiles::builtin_names()) {
    const auto device = config::profiles::builtin(name).device;
    for (const auto& verdict : tune::evaluate_candidates(device)) {
      if (!verdict.viable) continue;
      for (const Solution s : {Solution::kFused, Solution::kCudaUnfused}) {
        cases.push_back({name, s, verdict.geometry});
      }
    }
  }
  return cases;
}

class ExactCountGeometryTest : public ::testing::TestWithParam<GeometryCase> {
};

TEST_P(ExactCountGeometryTest, ScaledCalibrationEqualsFunctionalExactly) {
  // One tile-aligned small shape per geometry: two alignment units on every
  // axis, so the grid has at least two CTAs each way and K at least two
  // rank-tileK steps.
  const auto& p = GetParam();
  const auto profile = config::profiles::builtin(p.profile);
  pipelines::RunOptions options;
  options.device = profile.device;
  options.timing = profile.timing;
  options.energy = profile.energy;
  options.mainloop.geometry = p.geometry;
  const auto align = gpukernels::solve_alignment(p.geometry);
  expect_exact_counts(p.solution, 2 * align.m, 2 * align.n, 2 * align.k,
                      options);
}

INSTANTIATE_TEST_SUITE_P(EveryViableGeometry, ExactCountGeometryTest,
                         ::testing::ValuesIn(every_viable_geometry()));

TEST(CalibrationTest, GeometrySweepCoversTheTunersViableGrid) {
  std::vector<std::size_t> per_profile;
  for (const auto& name : config::profiles::builtin_names()) {
    std::size_t viable = 0;
    for (const auto& verdict :
         tune::evaluate_candidates(config::profiles::builtin(name).device)) {
      viable += verdict.viable ? 1u : 0u;
    }
    per_profile.push_back(viable);
  }
  EXPECT_EQ(per_profile, (std::vector<std::size_t>{24, 24, 26}));
  EXPECT_EQ(every_viable_geometry().size(), 2u * (24 + 24 + 26));
}

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

TEST(CalibrationTest, CalibratesOnTheActiveDevice) {
  // 64-byte L2 sectors change how many sectors one CTA's loads touch; the
  // model must count them on the device the pipeline runs on, not on a
  // fixed GTX 970.
  pipelines::RunOptions options;
  options.device.l2_sector_bytes = 64;
  options.device.dram_transaction_bytes = 64;
  options.device.validate();
  const auto inst = instance_for(256, 256, 16);
  const auto functional = pipelines::run_pipeline(
      Solution::kFused, inst, core::params_from_spec(inst.spec), options);
  PipelineModel model(options);
  const auto estimate = model.estimate(Solution::kFused, 256, 256, 16);
  ASSERT_EQ(functional.kernels.size(), estimate.kernels.size());
  ASSERT_EQ(estimate.kernels[2].name, "fused_ksum");
  EXPECT_EQ(estimate.kernels[2].scalable.l2_read_transactions,
            functional.kernels[2].counters.l2_read_transactions);
}

TEST(CalibrationTest, CacheReturnsSameObject) {
  Calibrator calibrator(config::DeviceSpec::gtx970());
  const CalibrationKey key{KernelKind::kGemmCudaC, 16, 0};
  const auto& a = calibrator.get(key);
  const auto& b = calibrator.get(key);
  EXPECT_EQ(&a, &b);
}

TEST(CalibrationTest, DistinctKeysDiffer) {
  Calibrator calibrator(config::DeviceSpec::gtx970());
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
  Calibrator calibrator(config::DeviceSpec::gtx970());
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
  Calibrator calibrator(config::DeviceSpec::gtx970());
  const auto& n0 = calibrator.get({KernelKind::kFused, 16, 0});
  const auto& n512 = calibrator.get({KernelKind::kFused, 16, 512});
  EXPECT_NE(&n0, &n512);
  EXPECT_EQ(n0.per_cta, n512.per_cta);
}

TEST(CalibrationTest, UnitOverTheArenaIsRefusedBeforeItIsBuilt) {
  // The unit CTA spans the request's K: at K = 2e9 it needs terabytes, so
  // ksum-tune refuses it (exit 2) instead of allocating.
  Calibrator calibrator(config::DeviceSpec::gtx970());
  try {
    calibrator.get({KernelKind::kFused, 2000000000, 0});
    ADD_FAILURE() << "calibrated a unit over the per-device arena";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("calibration CTA at K=2000000000"),
              std::string::npos);
  }
  // The row-wide units span N: a 128×2^20 GEMV unit with its
  // intermediate is over the gtx970's 512 MiB.
  EXPECT_THROW(calibrator.get({KernelKind::kGemv, 8, std::size_t{1} << 20}),
               Error);
}

}  // namespace
}  // namespace ksum::analytic
