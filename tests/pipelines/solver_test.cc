#include "pipelines/solver.h"

#include <gtest/gtest.h>

#include "blas/vector_ops.h"

namespace ksum::pipelines {
namespace {

workload::Instance small_instance() {
  workload::ProblemSpec spec;
  spec.m = 128;
  spec.n = 128;
  spec.k = 16;
  spec.bandwidth = 0.8f;
  return workload::make_instance(spec);
}

class SolverBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(SolverBackendTest, AllBackendsAgree) {
  const auto inst = small_instance();
  const auto params = core::params_from_spec(inst.spec);
  const auto ref = solve(inst, params, Backend::kCpuDirect);
  const auto out = solve(inst, params, GetParam());
  ASSERT_EQ(out.v.size(), inst.spec.m);
  EXPECT_LT(blas::max_rel_diff(out.v.span(), ref.v.span(), 1e-3), 2e-3)
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, SolverBackendTest,
                         ::testing::Values(Backend::kCpuDirect,
                                           Backend::kCpuExpansion,
                                           Backend::kSimFused,
                                           Backend::kSimCudaUnfused,
                                           Backend::kSimCublasUnfused));

TEST(SolverTest, SimBackendsCarryReports) {
  const auto inst = small_instance();
  const auto params = core::params_from_spec(inst.spec);
  const auto sim = solve(inst, params, Backend::kSimFused);
  ASSERT_TRUE(sim.report.has_value());
  EXPECT_EQ(sim.report->solution, Solution::kFused);
  EXPECT_GT(sim.report->seconds, 0.0);

  const auto host = solve(inst, params, Backend::kCpuDirect);
  EXPECT_FALSE(host.report.has_value());
  EXPECT_GE(host.host_seconds, 0.0);
}

TEST(SolverTest, BackendNames) {
  EXPECT_EQ(to_string(Backend::kCpuDirect), "cpu-direct");
  EXPECT_EQ(to_string(Backend::kSimFused), "sim-fused");
  EXPECT_EQ(to_string(Backend::kSimCublasUnfused), "sim-cublas-unfused");
}

TEST(SolverTest, AttachFaultPlanOwnsOnePlanOrInstallsAShardFactory) {
  RunOptions plain;
  EXPECT_EQ(attach_fault_plan(plain, 7, 0.0), nullptr);  // rate 0: no-op
  EXPECT_EQ(plain.fault_injector, nullptr);

  const auto plan = attach_fault_plan(plain, 7, 1e-3);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plain.fault_injector, plan.get());
  EXPECT_EQ(plan->config().seed, 7u);

  // Sharded runs reject a plain injector: the seed feeds a per-(shard,
  // dispatch) factory instead, one independent stream per shard.
  RunOptions sharded;
  sharded.shards.count = 2;
  EXPECT_EQ(attach_fault_plan(sharded, 7, 1e-3), nullptr);
  EXPECT_EQ(sharded.fault_injector, nullptr);
  ASSERT_TRUE(sharded.shards.injector_factory);
  const auto first = std::dynamic_pointer_cast<robust::FaultPlan>(
      sharded.shards.injector_factory(0, 0));
  const auto second = std::dynamic_pointer_cast<robust::FaultPlan>(
      sharded.shards.injector_factory(1, 0));
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->config().seed, shard::shard_fault_seed(7, 0, 0));
  EXPECT_EQ(second->config().seed, shard::shard_fault_seed(7, 1, 0));
}

}  // namespace
}  // namespace ksum::pipelines
