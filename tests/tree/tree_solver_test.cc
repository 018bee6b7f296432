// End-to-end treecode runs through pipelines::solve: the ε-guarantee on
// favorable shapes, bit-identical shard composition, TreeMode::kAuto
// decisions, option validation, and report plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "analytic/dense_cost.h"
#include "core/exact.h"
#include "pipelines/solver.h"
#include "tree/cost.h"
#include "tree/solve.h"
#include "workload/point_generators.h"

namespace ksum {
namespace {

using pipelines::Backend;

workload::Instance favorable_instance(std::uint64_t seed = 71,
                                      std::size_t m = 512,
                                      std::size_t n = 2048) {
  workload::ProblemSpec spec;
  spec.m = m;
  spec.n = n;
  spec.k = 2;
  spec.seed = seed;
  spec.bandwidth = 0.05f;
  return workload::make_instance(spec);
}

pipelines::RunOptions tree_options(double eps) {
  pipelines::RunOptions options;
  options.tree.eps = eps;
  options.tree.box_leaf = 64;
  options.tree.row_leaf = 64;
  return options;
}

double max_abs_err(const Vector& v, const Vector& oracle) {
  double worst = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(v[i]) -
                                     static_cast<double>(oracle[i])));
  }
  return worst;
}

// Prices every dense interaction at a full second: the tree, which skips
// most of them, must win.
struct ExpensiveDense : tree::DenseCostModel {
  double dense_seconds(std::size_t m, std::size_t n,
                       std::size_t) const override {
    return static_cast<double>(m) * static_cast<double>(n);
  }
};

// Dense work is free: nothing the tree does can beat it.
struct FreeDense : tree::DenseCostModel {
  double dense_seconds(std::size_t, std::size_t, std::size_t) const override {
    return 0.0;
  }
};

// Prices every shape at one second and records what it was asked.
struct RecordingDense : tree::DenseCostModel {
  mutable std::vector<std::array<std::size_t, 3>> shapes;
  double dense_seconds(std::size_t m, std::size_t n,
                       std::size_t k) const override {
    shapes.push_back({m, n, k});
    return 1.0;
  }
};

double float_slack(const Vector& oracle) {
  double slack = 0;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    slack = std::max(
        slack, 5e-3 * std::max(1e-2, std::abs(static_cast<double>(oracle[i]))));
  }
  return slack;
}

TEST(TreeSolverTest, MeetsTheEpsilonBudgetAcrossTheLadder) {
  const auto instance = favorable_instance();
  const auto params = core::params_from_spec(instance.spec);
  const auto oracle = pipelines::solve(instance, params, Backend::kCpuDirect);
  const double slack = float_slack(oracle.v);
  for (const double eps : {1e-2, 1e-4, 1e-6}) {
    const auto result = pipelines::solve(instance, params, Backend::kSimFused,
                                         tree_options(eps));
    ASSERT_TRUE(result.tree.has_value()) << "eps " << eps;
    EXPECT_TRUE(result.tree->used_tree) << "eps " << eps;
    EXPECT_LE(result.tree->bound_total, eps) << "eps " << eps;
    EXPECT_LE(max_abs_err(result.v, oracle.v), eps + slack) << "eps " << eps;
  }
}

TEST(TreeSolverTest, ReportDescribesTheExecutedPlan) {
  const auto instance = favorable_instance(72);
  const auto params = core::params_from_spec(instance.spec);
  const auto result = pipelines::solve(instance, params, Backend::kSimFused,
                                       tree_options(1e-4));
  ASSERT_TRUE(result.tree.has_value());
  const auto& report = *result.tree;
  EXPECT_TRUE(report.used_tree);
  EXPECT_DOUBLE_EQ(report.eps, 1e-4);
  EXPECT_GT(report.row_clusters, 0u);
  EXPECT_GT(report.boxes, 0u);
  EXPECT_GT(report.far_pairs_order0 + report.far_pairs_order1, 0u);
  // A favorable shape should skip a real share of the dense work.
  EXPECT_LT(report.near_fraction(instance.spec.m, instance.spec.n), 0.9);
  EXPECT_GT(report.near_seconds, 0.0);
  EXPECT_GE(report.far_seconds, 0.0);
  EXPECT_FALSE(report.to_string().empty());
  // The near-field sub-runs carry the pipeline report forward.
  ASSERT_TRUE(result.report.has_value());
  EXPECT_GT(result.report->seconds, 0.0);
  EXPECT_GT(result.report->useful_flops, 0.0);
}

TEST(TreeSolverTest, ShardCompositionIsBitIdentical) {
  const auto instance = favorable_instance(73);
  const auto params = core::params_from_spec(instance.spec);
  const auto baseline = pipelines::solve(instance, params, Backend::kSimFused,
                                         tree_options(1e-4));
  ASSERT_TRUE(baseline.tree.has_value() && baseline.tree->used_tree);
  for (const std::size_t count : {2u, 3u, 8u}) {
    for (const int workers : {1, 2, 8}) {
      auto options = tree_options(1e-4);
      options.shards.count = count;
      options.shards.workers = workers;
      const auto sharded =
          pipelines::solve(instance, params, Backend::kSimFused, options);
      ASSERT_TRUE(sharded.tree.has_value());
      EXPECT_TRUE(sharded.tree->used_tree);
      ASSERT_TRUE(sharded.shards.has_value());
      // Workers are clamped to the shard-group count.
      EXPECT_EQ(sharded.shards->workers,
                std::min(workers, static_cast<int>(count)));
      ASSERT_EQ(baseline.v.size(), sharded.v.size());
      EXPECT_EQ(std::memcmp(baseline.v.data(), sharded.v.data(),
                            baseline.v.size() * sizeof(float)),
                0)
          << "count " << count << " workers " << workers;
    }
  }
}

TEST(TreeSolverTest, ShardSlicesCarryLeafRanges) {
  const auto instance = favorable_instance(74);
  const auto params = core::params_from_spec(instance.spec);
  auto options = tree_options(1e-4);
  options.shards.count = 3;
  const auto result =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(result.shards.has_value());
  ASSERT_EQ(result.shards->slices.size(), 3u);
  ASSERT_TRUE(result.tree.has_value());
  // begin/end are row-cluster (leaf) index ranges tiling [0, clusters).
  EXPECT_EQ(result.shards->slices.front().begin, 0u);
  EXPECT_EQ(result.shards->slices.back().end, result.tree->row_clusters);
  for (std::size_t i = 1; i < result.shards->slices.size(); ++i) {
    EXPECT_EQ(result.shards->slices[i - 1].end,
              result.shards->slices[i].begin);
  }
}

TEST(TreeSolverTest, ExplicitNAxisShardsFallBackDense) {
  // kN sharding merges staged partials — incompatible with the tree's
  // per-cluster sub-runs, so the solver keeps the dense path (and the kN
  // machinery) instead of failing: ksum-serve's oversized-N routing keeps
  // working with a daemon-wide --tree-eps.
  const auto instance = favorable_instance(75);
  const auto params = core::params_from_spec(instance.spec);
  auto dense_options = pipelines::RunOptions{};
  dense_options.shards.count = 2;
  dense_options.shards.axis = shard::ShardAxis::kN;
  const auto dense =
      pipelines::solve(instance, params, Backend::kSimFused, dense_options);

  auto options = tree_options(1e-4);
  options.shards.count = 2;
  options.shards.axis = shard::ShardAxis::kN;
  const auto result =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(result.tree.has_value());
  EXPECT_FALSE(result.tree->used_tree);
  EXPECT_FALSE(result.tree->fallback_reason.empty());
  ASSERT_EQ(dense.v.size(), result.v.size());
  EXPECT_EQ(std::memcmp(dense.v.data(), result.v.data(),
                        dense.v.size() * sizeof(float)),
            0);
}

TEST(TreeSolverTest, AutoModeRunsTheTreeWhenItIsCheaper) {
  const ExpensiveDense expensive;
  const auto instance = favorable_instance(76);
  const auto params = core::params_from_spec(instance.spec);
  auto options = tree_options(1e-4);
  options.tree.mode = tree::TreeMode::kAuto;
  options.tree.cost_model = &expensive;
  const auto result =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(result.tree.has_value());
  EXPECT_TRUE(result.tree->used_tree);
}

TEST(TreeSolverTest, AutoModeFallsBackWhenDenseIsCheaper) {
  const FreeDense free_dense;
  const auto instance = favorable_instance(77);
  const auto params = core::params_from_spec(instance.spec);
  const auto plain = pipelines::solve(instance, params, Backend::kSimFused);
  auto options = tree_options(1e-4);
  options.tree.mode = tree::TreeMode::kAuto;
  options.tree.cost_model = &free_dense;
  const auto result =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(result.tree.has_value());
  EXPECT_FALSE(result.tree->used_tree);
  EXPECT_FALSE(result.tree->fallback_reason.empty());
  ASSERT_EQ(plain.v.size(), result.v.size());
  EXPECT_EQ(std::memcmp(plain.v.data(), result.v.data(),
                        plain.v.size() * sizeof(float)),
            0);
}

TEST(TreeSolverTest, AutoModePricesRaggedShapesWithTheAnalyticModel) {
  // The analytic adapter prices the zero-padded shape, so kAuto accepts a
  // problem off the 128/8 grid whose near blocks are ragged too.
  const auto instance = favorable_instance(81, 500, 2000);
  const auto params = core::params_from_spec(instance.spec);
  const auto oracle = pipelines::solve(instance, params, Backend::kCpuDirect);
  const analytic::DenseCost dense(pipelines::RunOptions{});
  auto options = tree_options(1e-4);
  options.tree.mode = tree::TreeMode::kAuto;
  options.tree.cost_model = &dense;
  const auto result =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_EQ(result.v.size(), instance.spec.m);
  ASSERT_TRUE(result.tree.has_value());
  EXPECT_LE(max_abs_err(result.v, oracle.v), 1e-4 + float_slack(oracle.v));
}

TEST(TreeSolverTest, RejectsUnsupportedOptionCombinations) {
  const auto instance = favorable_instance(78, 128, 256);
  const auto params = core::params_from_spec(instance.spec);

  pipelines::RunOptions negative;
  negative.tree.eps = -1e-3;
  EXPECT_THROW(
      pipelines::solve(instance, params, Backend::kSimFused, negative), Error);

  // The treecode only routes through the fused pipeline; host oracles and
  // the unfused simulated backends must reject it rather than silently
  // ignoring the budget.
  for (const Backend backend :
       {Backend::kCpuDirect, Backend::kCpuExpansion, Backend::kSimCudaUnfused,
        Backend::kSimCublasUnfused}) {
    EXPECT_THROW(pipelines::solve(instance, params, backend, tree_options(1e-4)),
                 Error)
        << to_string(backend);
  }

  // Any attached injector conflicts with the ε contract (a corrupted
  // near-field block voids the guarantee), so validation sees it first.
  struct NullInjector : gpusim::FaultInjector {
    float corrupt_word(gpusim::FaultSite, float value) override {
      return value;
    }
    gpusim::AtomicFate atomic_fate() override {
      return gpusim::AtomicFate::kApply;
    }
  } null_injector;
  auto with_fault = tree_options(1e-4);
  with_fault.fault_injector = &null_injector;
  EXPECT_THROW(
      pipelines::solve(instance, params, Backend::kSimFused, with_fault),
      Error);

  auto with_shard_faults = tree_options(1e-4);
  with_shard_faults.shards.count = 2;
  with_shard_faults.shards.injector_factory = [](std::size_t, int) {
    return std::shared_ptr<gpusim::FaultInjector>();
  };
  EXPECT_THROW(pipelines::solve(instance, params, Backend::kSimFused,
                                with_shard_faults),
               Error);

  auto with_capture = tree_options(1e-4);
  shard::StagedPartials partials;
  with_capture.capture_staged_partials = &partials;
  EXPECT_THROW(
      pipelines::solve(instance, params, Backend::kSimFused, with_capture),
      Error);

  // Auto mode has exactly one dense price; without it there is nothing to
  // compare the tree against.
  auto auto_without_model = tree_options(1e-4);
  auto_without_model.tree.mode = tree::TreeMode::kAuto;
  EXPECT_THROW(pipelines::solve(instance, params, Backend::kSimFused,
                                auto_without_model),
               Error);
}

TEST(TreeSolverTest, RoundTripsThroughUnalignedShapes) {
  // Shapes nowhere near the 128-row CTA grid: padding happens inside every
  // near-field sub-run; the guarantee and V length must survive.
  workload::ProblemSpec spec;
  spec.m = 129;
  spec.n = 1001;
  spec.k = 2;
  spec.seed = 79;
  spec.bandwidth = 0.05f;
  const auto instance = workload::make_instance(spec);
  const auto params = core::params_from_spec(spec);
  const auto oracle = pipelines::solve(instance, params, Backend::kCpuDirect);
  const auto result = pipelines::solve(instance, params, Backend::kSimFused,
                                       tree_options(1e-3));
  ASSERT_EQ(result.v.size(), spec.m);
  ASSERT_TRUE(result.tree.has_value());
  EXPECT_LE(max_abs_err(result.v, oracle.v), 1e-3 + float_slack(oracle.v));
}

TEST(TreeSolverTest, CostEstimatesAreFiniteAndOrdered) {
  const auto instance = favorable_instance(80);
  const auto params = core::params_from_spec(instance.spec);
  tree::TreeSpec spec = tree_options(1e-4).tree;
  const auto plan = tree::build_plan(instance, params, spec);
  const auto device = config::DeviceSpec::gtx970();
  const analytic::DenseCost analytic_dense(pipelines::RunOptions{});
  const double dense = analytic_dense.dense_seconds(
      instance.spec.m, instance.spec.n, instance.spec.k);
  const double treed =
      tree::tree_seconds_estimate(plan, instance.spec.k, analytic_dense, device);
  EXPECT_TRUE(std::isfinite(dense));
  EXPECT_TRUE(std::isfinite(treed));
  EXPECT_GT(dense, 0.0);
  EXPECT_GT(treed, 0.0);

  // The near blocks are priced by the dense model alone: free dense work
  // leaves only the far-field series, and costlier dense work costs more.
  const double far = tree::far_field_seconds(plan, device);
  EXPECT_GT(far, 0.0);
  EXPECT_EQ(tree::tree_seconds_estimate(plan, instance.spec.k, FreeDense{},
                                        device),
            far);
  EXPECT_GT(tree::tree_seconds_estimate(plan, instance.spec.k,
                                        ExpensiveDense{}, device),
            treed);
}

TEST(TreeSolverTest, EstimatePricesEachNearBlockOnceThroughTheDenseModel) {
  const auto instance = favorable_instance(82);
  const auto params = core::params_from_spec(instance.spec);
  const auto plan =
      tree::build_plan(instance, params, tree_options(1e-4).tree);
  const auto device = config::DeviceSpec::gtx970();
  const RecordingDense recording;
  const double seconds =
      tree::tree_seconds_estimate(plan, instance.spec.k, recording, device);

  // One call per row cluster that has near work, covering exactly the
  // plan's near interactions at the caller's K.
  ASSERT_FALSE(recording.shapes.empty());
  EXPECT_LE(recording.shapes.size(), plan.rows.size());
  double interactions = 0;
  std::size_t rows = 0;
  for (const auto& [m, n, k] : recording.shapes) {
    EXPECT_GT(m, 0u);
    EXPECT_GT(n, 0u);
    EXPECT_LE(n, instance.spec.n);
    EXPECT_EQ(k, instance.spec.k);
    interactions += static_cast<double>(m) * static_cast<double>(n);
    rows += m;
  }
  EXPECT_EQ(interactions, plan.near_interactions);
  EXPECT_LE(rows, instance.spec.m);
  EXPECT_EQ(seconds, tree::far_field_seconds(plan, device) +
                         static_cast<double>(recording.shapes.size()));
}

}  // namespace
}  // namespace ksum
