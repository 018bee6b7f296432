#include "analytic/dense_cost.h"
#include "analytic/pipeline_model.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ksum::analytic {
namespace {

using pipelines::Solution;

TEST(PipelineModelTest, HandlesPaperScaleInstantly) {
  PipelineModel model;
  const auto est = model.estimate(Solution::kFused, 524288, 1024, 256);
  EXPECT_GT(est.seconds, 0.0);
  EXPECT_GT(est.total.fma_lane_ops, 1e11);
  EXPECT_GT(est.energy.total(), 0.0);
}

TEST(PipelineModelTest, RejectsUnalignedShapes) {
  PipelineModel model;
  EXPECT_THROW(model.estimate(Solution::kFused, 100, 1024, 32), Error);
  EXPECT_THROW(model.estimate(Solution::kFused, 1024, 100, 32), Error);
  EXPECT_THROW(model.estimate(Solution::kFused, 1024, 1024, 12), Error);
}

TEST(PipelineModelTest, KernelListMatchesSolution) {
  PipelineModel model;
  const auto fused = model.estimate(Solution::kFused, 1024, 1024, 32);
  ASSERT_EQ(fused.kernels.size(), 3u);
  EXPECT_EQ(fused.kernels[2].name, "fused_ksum");
  const auto unfused =
      model.estimate(Solution::kCublasUnfused, 1024, 1024, 32);
  ASSERT_EQ(unfused.kernels.size(), 5u);
}

TEST(PipelineModelTest, TimeGrowsWithM) {
  PipelineModel model;
  double prev = 0;
  for (std::size_t m = 1024; m <= 65536; m *= 4) {
    const auto est = model.estimate(Solution::kFused, m, 1024, 32);
    EXPECT_GT(est.seconds, prev);
    prev = est.seconds;
  }
}

TEST(PipelineModelTest, TimeGrowsWithK) {
  PipelineModel model;
  double prev = 0;
  for (std::size_t k : {32u, 64u, 128u, 256u}) {
    const auto est = model.estimate(Solution::kCublasUnfused, 65536, 1024, k);
    EXPECT_GT(est.seconds, prev);
    prev = est.seconds;
  }
}

TEST(PipelineModelTest, EfficiencySaturatesWithM) {
  // Table II: efficiency at M=131072 ≈ M=524288 (the device is full).
  PipelineModel model;
  const auto mid = model.estimate(Solution::kFused, 131072, 1024, 32);
  const auto big = model.estimate(Solution::kFused, 524288, 1024, 32);
  EXPECT_NEAR(mid.flop_efficiency, big.flop_efficiency, 0.01);
  // And M=1024 is measurably worse (tail waves + launch overhead).
  const auto small = model.estimate(Solution::kFused, 1024, 1024, 32);
  EXPECT_LT(small.flop_efficiency, mid.flop_efficiency);
}

TEST(PipelineModelTest, GemmOnlyGapInPaperBand) {
  PipelineModel model;
  for (std::size_t k : {32u, 64u, 128u, 256u}) {
    const auto ours = model.estimate_gemm_only(false, 131072, 1024, k);
    const auto cublas = model.estimate_gemm_only(true, 131072, 1024, k);
    const auto& dev = model.options().device;
    const double ratio =
        ours.timing.seconds(dev) / cublas.timing.seconds(dev);
    EXPECT_GT(ratio, 1.4) << "K=" << k;
    EXPECT_LT(ratio, 2.1) << "K=" << k;
  }
}

TEST(PipelineModelTest, StagedReductionCostsMoreThanAtomic) {
  pipelines::RunOptions staged_options;
  staged_options.atomic_reduction = false;
  PipelineModel atomic_model;
  PipelineModel staged_model(staged_options);
  const auto atomic_est =
      atomic_model.estimate(Solution::kFused, 131072, 1024, 32);
  const auto staged_est =
      staged_model.estimate(Solution::kFused, 131072, 1024, 32);
  EXPECT_GT(staged_est.dram_transactions(), atomic_est.dram_transactions());
  EXPECT_EQ(staged_est.kernels.size(), 4u);
}

TEST(PipelineModelTest, NaiveLayoutRaisesSmemTraffic) {
  pipelines::RunOptions naive_options;
  naive_options.mainloop.layout = gpukernels::TileLayout::kNaive;
  PipelineModel fig5_model;
  PipelineModel naive_model(naive_options);
  const auto fig5 = fig5_model.estimate(Solution::kFused, 65536, 1024, 64);
  const auto naive = naive_model.estimate(Solution::kFused, 65536, 1024, 64);
  EXPECT_GT(naive.total.smem_transactions,
            1.5 * fig5.total.smem_transactions);
  EXPECT_GE(naive.seconds, fig5.seconds);
}

TEST(PipelineModelTest, SingleBufferAblation) {
  pipelines::RunOptions sb_options;
  sb_options.mainloop.double_buffer = false;
  PipelineModel db_model;
  PipelineModel sb_model(sb_options);
  const auto db = db_model.estimate(Solution::kFused, 65536, 1024, 64);
  const auto sb = sb_model.estimate(Solution::kFused, 65536, 1024, 64);
  // Same arithmetic, more barriers.
  EXPECT_NEAR(sb.total.fma_lane_ops, db.total.fma_lane_ops, 1.0);
  EXPECT_GT(sb.kernels[2].scalable.barriers,
            db.kernels[2].scalable.barriers);
}

TEST(DenseCostTest, PricesThePaddedShapeSolveRuns) {
  // pipelines::solve zero-pads M and N to 128 and K to 8, so a ragged
  // shape costs exactly its padded run.
  const DenseCost dense(pipelines::RunOptions{});
  PipelineModel model;
  EXPECT_EQ(dense.dense_seconds(500, 2000, 2),
            model.estimate(Solution::kFused, 512, 2048, 8).seconds);
  EXPECT_EQ(dense.dense_seconds(512, 2048, 8),
            dense.dense_seconds(500, 2000, 2));
}

TEST(DenseCostTest, HonorsTheRunOptionsReduction) {
  // The adapter prices the pipeline its RunOptions select: the staged
  // two-pass reduction adds kernels the atomic one does not run.
  pipelines::RunOptions staged;
  staged.atomic_reduction = false;
  const DenseCost staged_dense(staged);
  const DenseCost atomic_dense(pipelines::RunOptions{});
  PipelineModel staged_model(staged);
  EXPECT_EQ(staged_dense.dense_seconds(500, 2000, 2),
            staged_model.estimate(Solution::kFused, 512, 2048, 8).seconds);
  EXPECT_NE(staged_dense.dense_seconds(500, 2000, 2),
            atomic_dense.dense_seconds(500, 2000, 2));
}

TEST(DenseCostTest, ConcurrentCallersSeeTheSerialPrice) {
  // Batch workers share one adapter; every thread must read the price a
  // lone caller would.
  const std::size_t widths[] = {100, 256, 1000, 2000};
  std::vector<double> serial;
  {
    const DenseCost lone(pipelines::RunOptions{});
    for (const std::size_t n : widths) {
      serial.push_back(lone.dense_seconds(300, n, 3));
    }
  }
  const DenseCost shared(pipelines::RunOptions{});
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> seen(kThreads,
                                        std::vector<double>(serial.size()));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread starts at a different width so first-use calibrations
      // race.
      for (std::size_t j = 0; j < serial.size(); ++j) {
        const std::size_t i = (t + j) % serial.size();
        seen[t][i] = shared.dense_seconds(300, widths[i], 3);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace ksum::analytic
