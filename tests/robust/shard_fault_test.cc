// The shard-level fault scenario from bench/fault_campaign.cc experiment 4
// as a deterministic regression: a request split over 4 shards with a
// faulty device behind exactly one of them must localize detection to that
// shard, re-dispatch only it, and merge to the unsharded bytes
// (docs/SHARDING.md §Faults). The exhaustive runner semantics live in
// tests/shard/shard_runner_test.cc; this pins the robustness-facing
// contract next to the other ABFT suites.
#include <cstring>

#include <gtest/gtest.h>

#include "pipelines/solver.h"
#include "robust/fault_plan.h"
#include "shard/types.h"
#include "workload/point_generators.h"

namespace ksum {
namespace {

using pipelines::Backend;
using pipelines::RunOptions;

TEST(ShardFaultTest, FaultInOneShardLocalizesAndRecovers) {
  workload::ProblemSpec spec;
  spec.m = 512;
  spec.n = 512;
  spec.k = 16;
  spec.seed = 2024;
  const workload::Instance instance = workload::make_instance(spec);
  const core::KernelParams params;
  const auto unsharded =
      pipelines::solve(instance, params, Backend::kSimFused);

  RunOptions options;
  options.shards.count = 4;
  options.shards.axis = shard::ShardAxis::kM;
  // Rate 0.5, not 1.0: dropping every atomicAdd would also zero the ABFT
  // checksum path and the (totally wrong) result would pass its own check.
  options.shards.injector_factory =
      [](std::size_t s, int d) -> std::shared_ptr<gpusim::FaultInjector> {
    if (s != 2 || d != 0) return nullptr;
    return std::make_shared<robust::FaultPlan>(
        robust::FaultPlanConfig::single_site(
            shard::shard_fault_seed(2024, s, d),
            gpusim::FaultSite::kAtomicDrop, 0.5));
  };
  options.recovery.enabled = true;
  options.recovery.max_retries = 0;  // exercise the re-dispatch
  options.recovery.fallback_to_unfused = false;
  const auto run =
      pipelines::solve(instance, params, Backend::kSimFused, options);

  ASSERT_TRUE(run.shards.has_value());
  for (const auto& slice : run.shards->slices) {
    if (slice.index == 2) {
      EXPECT_EQ(slice.dispatches, 2);
      EXPECT_GE(slice.recovery.faults_detected, 1);
      EXPECT_FALSE(slice.recovery.gave_up);
    } else {
      EXPECT_EQ(slice.dispatches, 1) << "shard " << slice.index;
      EXPECT_EQ(slice.recovery.faults_detected, 0) << "shard " << slice.index;
    }
  }
  EXPECT_FALSE(run.recovery.gave_up);
  ASSERT_EQ(run.v.size(), unsharded.v.size());
  EXPECT_EQ(std::memcmp(run.v.data(), unsharded.v.data(),
                        run.v.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace ksum
