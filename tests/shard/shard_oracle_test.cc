// Oracle-equivalence suite for sharded execution (docs/SHARDING.md): merged
// V must be bit-identical to the single-device run for every shard count,
// axis, worker count, and backend the planner admits. These tests pin the
// whole determinism contract — including the one hardware fact the N-axis
// merge rides on: atomic and staged reductions produce the same bits under
// the simulator's sequential CTA execution.
#include <cstring>

#include <gtest/gtest.h>

#include "pipelines/solver.h"
#include "robust/fault_plan.h"
#include "shard/plan.h"
#include "shard/runner.h"
#include "workload/point_generators.h"

namespace ksum {
namespace {

using pipelines::Backend;
using pipelines::RunOptions;
using pipelines::SolveResult;
using shard::ShardAxis;

workload::Instance make_case(std::size_t m, std::size_t n, std::size_t k,
                             std::uint64_t seed) {
  workload::ProblemSpec spec;
  spec.m = m;
  spec.n = n;
  spec.k = k;
  spec.seed = seed;
  spec.distribution = workload::Distribution::kUniformCube;
  return workload::make_instance(spec);
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The N-axis merge replays the staged (non-atomic) reduction, while the
// default single-device oracle runs the atomic one. They agree bit for bit
// because the simulator executes CTAs sequentially in ascending bx order
// and atomicAdd applies per lane in that order over a zeroed V — the exact
// left fold run_partial_reduce performs. This probe pins that equivalence
// on its own, so a failure here (and not in the merge tests) points at the
// reduction semantics, not the shard layer.
TEST(ShardOracleTest, AtomicAndStagedReductionsAgreeBitwise) {
  const std::size_t shapes[][3] = {{128, 128, 8}, {200, 384, 16}, {96, 250, 9}};
  for (const auto& s : shapes) {
    const workload::Instance instance = make_case(s[0], s[1], s[2], 11);
    const core::KernelParams params;
    RunOptions atomic_opts;
    RunOptions staged_opts;
    staged_opts.atomic_reduction = false;
    const SolveResult a =
        pipelines::solve(instance, params, Backend::kSimFused, atomic_opts);
    const SolveResult b =
        pipelines::solve(instance, params, Backend::kSimFused, staged_opts);
    EXPECT_TRUE(bitwise_equal(a.v, b.v))
        << "atomic vs staged mismatch at " << s[0] << "x" << s[1] << "x"
        << s[2];
  }
}

TEST(ShardOracleTest, MergedVBitIdenticalAcrossCountsAndAxes) {
  const core::KernelParams params;
  const std::size_t shapes[][3] = {
      {1024, 512, 16},  // 8 M-blocks, 4 N-blocks
      {1000, 900, 9},   // ragged in every dimension
  };
  for (const auto& s : shapes) {
    const workload::Instance instance = make_case(s[0], s[1], s[2], 42);
    const SolveResult oracle =
        pipelines::solve(instance, params, Backend::kSimFused, RunOptions{});
    for (const ShardAxis axis : {ShardAxis::kM, ShardAxis::kN}) {
      for (const std::size_t count : {1u, 2u, 3u, 5u, 8u}) {
        RunOptions options;
        options.shards.count = count;
        options.shards.axis = axis;
        const SolveResult sharded =
            pipelines::solve(instance, params, Backend::kSimFused, options);
        EXPECT_TRUE(bitwise_equal(oracle.v, sharded.v))
            << s[0] << "x" << s[1] << "x" << s[2] << " axis "
            << shard::to_string(axis) << " count " << count;
        if (count == 1) {
          // count == 1 means "unsharded": the request takes the ordinary
          // single-device path and carries no shard report.
          EXPECT_FALSE(sharded.shards.has_value());
          continue;
        }
        ASSERT_TRUE(sharded.shards.has_value());
        EXPECT_EQ(sharded.shards->axis, axis);
        EXPECT_LE(sharded.shards->count(), count);
      }
    }
  }
}

// M-axis concatenation works for the unfused backends too (their per-row
// results are independent of the CTA row grouping).
TEST(ShardOracleTest, UnfusedBackendsShardOnM) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(640, 384, 8, 7);
  for (const Backend backend :
       {Backend::kSimCudaUnfused, Backend::kSimCublasUnfused}) {
    const SolveResult oracle =
        pipelines::solve(instance, params, backend, RunOptions{});
    RunOptions options;
    options.shards.count = 4;
    options.shards.axis = ShardAxis::kM;
    const SolveResult sharded =
        pipelines::solve(instance, params, backend, options);
    EXPECT_TRUE(bitwise_equal(oracle.v, sharded.v))
        << "backend " << pipelines::to_string(backend);
  }
}

// The worker count is pure scheduling: any number of workers produces the
// same bytes and the same merged event counters.
TEST(ShardOracleTest, WorkerCountInvariance) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(1000, 640, 16, 99);
  for (const ShardAxis axis : {ShardAxis::kM, ShardAxis::kN}) {
    std::optional<SolveResult> reference;
    for (const int workers : {1, 2, 4}) {
      RunOptions options;
      options.shards.count = 4;
      options.shards.axis = axis;
      options.shards.workers = workers;
      SolveResult run =
          pipelines::solve(instance, params, Backend::kSimFused, options);
      ASSERT_TRUE(run.report.has_value());
      if (!reference.has_value()) {
        reference = std::move(run);
        continue;
      }
      EXPECT_TRUE(bitwise_equal(reference->v, run.v))
          << "axis " << shard::to_string(axis) << " workers " << workers;
      EXPECT_TRUE(reference->report->total == run.report->total)
          << "merged counters changed with worker count";
      EXPECT_EQ(reference->recovery.attempts, run.recovery.attempts);
    }
  }
}

// Auto planning: a constrained per-device budget forces a real split, and
// the result still matches the oracle bit for bit.
TEST(ShardOracleTest, AutoCountSplitsToFitBudgetAndMatchesOracle) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(1024, 384, 8, 5);
  const SolveResult oracle =
      pipelines::solve(instance, params, Backend::kSimFused, RunOptions{});
  RunOptions options;
  options.shards.count = 0;  // auto
  options.shards.axis = ShardAxis::kM;
  // Big enough for a couple of row blocks, far too small for all eight.
  options.device.shard_arena_bytes = pipelines::required_device_bytes(
      256, 384, 8, /*with_intermediate=*/false, 128);
  const SolveResult sharded =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(sharded.shards.has_value());
  EXPECT_GE(sharded.shards->count(), 4u);
  EXPECT_TRUE(bitwise_equal(oracle.v, sharded.v));
}

// Counts clamp to the block count: a single-block problem runs as one
// shard no matter what was requested.
TEST(ShardOracleTest, CountClampsToBlocks) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(100, 120, 8, 3);
  const SolveResult oracle =
      pipelines::solve(instance, params, Backend::kSimFused, RunOptions{});
  RunOptions options;
  options.shards.count = 8;
  options.shards.axis = ShardAxis::kM;
  const SolveResult sharded =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(sharded.shards.has_value());
  EXPECT_EQ(sharded.shards->count(), 1u);
  EXPECT_TRUE(bitwise_equal(oracle.v, sharded.v));
}

// Merged-report composition: kernels concatenate in shard order with the
// "s<i>/" prefix, modelled time is the max over shards, and the energy and
// counter totals are the per-shard sums.
TEST(ShardOracleTest, MergedReportComposition) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(512, 256, 8, 21);
  RunOptions options;
  options.shards.count = 4;
  options.shards.axis = ShardAxis::kM;
  const SolveResult sharded =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(sharded.report.has_value());
  ASSERT_TRUE(sharded.shards.has_value());
  EXPECT_EQ(sharded.shards->count(), 4u);
  EXPECT_EQ(sharded.report->m, 512u);
  ASSERT_FALSE(sharded.report->kernels.empty());
  EXPECT_EQ(sharded.report->kernels.front().name.rfind("s0/", 0), 0u);
  EXPECT_EQ(sharded.report->kernels.back().name.rfind("s3/", 0), 0u);
  EXPECT_GT(sharded.report->seconds, 0.0);
  EXPECT_GT(sharded.report->total.kernel_launches, 0u);
  // Ranges partition [0, m).
  std::size_t covered = 0;
  for (const auto& slice : sharded.shards->slices) {
    EXPECT_EQ(slice.begin, covered);
    covered = slice.end;
    EXPECT_EQ(slice.dispatches, 1);
  }
  EXPECT_EQ(covered, 512u);
}

// Usage errors surface as ksum::Error, not silent misbehaviour.
TEST(ShardOracleTest, UsageErrors) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(256, 256, 8, 1);
  {
    // N-axis sharding needs the staged reduction of the fused kernel.
    RunOptions options;
    options.shards.count = 2;
    options.shards.axis = ShardAxis::kN;
    EXPECT_THROW(pipelines::solve(instance, params,
                                  Backend::kSimCublasUnfused, options),
                 Error);
  }
  {
    // A single injector cannot name the faulty device.
    robust::FaultPlan plan(robust::FaultPlanConfig::uniform(1, 1e-6));
    RunOptions options;
    options.shards.count = 2;
    options.fault_injector = &plan;
    EXPECT_THROW(
        pipelines::solve(instance, params, Backend::kSimFused, options),
        Error);
  }
  {
    // Host backends do not shard.
    RunOptions options;
    options.shards.count = 2;
    EXPECT_THROW(
        pipelines::solve(instance, params, Backend::kCpuDirect, options),
        Error);
  }
}

}  // namespace
}  // namespace ksum
