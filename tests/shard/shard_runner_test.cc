// Runner semantics: per-shard fault injection, localized retries, the
// one re-dispatch of a shard whose recovery gave up, and give-up
// propagation (docs/SHARDING.md §Runner). These are the deterministic
// single-process versions of the shard fault campaign
// (bench/fault_campaign.cc, experiment 4).
#include <cstring>

#include <gtest/gtest.h>

#include "pipelines/solver.h"
#include "robust/fault_plan.h"
#include "shard/runner.h"
#include "shard/types.h"
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
  return workload::make_instance(spec);
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// A factory that drops atomicAdds of exactly one (shard, dispatch) and
// runs everything else clean. The rate must NOT be 1.0: dropping every
// atomicAdd also drops the ABFT checksum path's adds, so V and its
// checksum are consistently zero and the check passes — a total fault
// that is invisible by construction. Rate 0.5 decorrelates the two
// accumulation paths (each add draws independently), which on a
// 128-row shard makes detection certain in practice — and the simulator
// is deterministic for a fixed seed, so the test is too.
shard::ShardInjectorFactory fault_one(std::size_t faulty_shard,
                                      int faulty_dispatch) {
  return [faulty_shard, faulty_dispatch](std::size_t s, int d)
             -> std::shared_ptr<gpusim::FaultInjector> {
    if (s != faulty_shard || d != faulty_dispatch) return nullptr;
    return std::make_shared<robust::FaultPlan>(
        robust::FaultPlanConfig::single_site(
            shard::shard_fault_seed(2024, s, d),
            gpusim::FaultSite::kAtomicDrop, 0.5));
  };
}

TEST(ShardRunnerTest, SingleShardFaultRetriesOnlyThatShard) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(512, 256, 16, 77);
  const SolveResult oracle =
      pipelines::solve(instance, params, Backend::kSimFused, RunOptions{});

  for (const int workers : {1, 2, 4}) {
    RunOptions options;
    options.shards.count = 4;
    options.shards.axis = ShardAxis::kM;
    options.shards.workers = workers;
    options.shards.injector_factory = fault_one(/*shard=*/2, /*dispatch=*/0);
    options.recovery.enabled = true;
    options.recovery.max_retries = 0;        // one attempt per dispatch
    options.recovery.fallback_to_unfused = false;
    const SolveResult run =
        pipelines::solve(instance, params, Backend::kSimFused, options);

    ASSERT_TRUE(run.shards.has_value());
    ASSERT_EQ(run.shards->count(), 4u);
    for (const auto& slice : run.shards->slices) {
      if (slice.index == 2) {
        // Detection localized here: this shard gave up on dispatch 0 and
        // was re-dispatched once, coming back clean.
        EXPECT_EQ(slice.dispatches, 2) << "workers=" << workers;
        EXPECT_EQ(slice.recovery.attempts, 2);
        EXPECT_GE(slice.recovery.faults_detected, 1);
        EXPECT_FALSE(slice.recovery.gave_up);
      } else {
        EXPECT_EQ(slice.dispatches, 1) << "shard " << slice.index;
        EXPECT_EQ(slice.recovery.attempts, 1);
        EXPECT_EQ(slice.recovery.faults_detected, 0);
      }
    }
    // Only the faulty shard retried: 4 clean + 1 extra dispatch.
    EXPECT_EQ(run.recovery.attempts, 5);
    EXPECT_FALSE(run.recovery.gave_up);
    // The recovered output is the oracle, bit for bit.
    EXPECT_TRUE(bitwise_equal(oracle.v, run.v)) << "workers=" << workers;
  }
}

TEST(ShardRunnerTest, PersistentFaultExhaustsDispatchesAndGivesUp) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(384, 256, 16, 31);
  RunOptions options;
  options.shards.count = 3;
  options.shards.axis = ShardAxis::kM;
  // Shard 1 is faulty on every dispatch — no device is safe.
  options.shards.injector_factory =
      [](std::size_t s, int d) -> std::shared_ptr<gpusim::FaultInjector> {
    if (s != 1) return nullptr;
    return std::make_shared<robust::FaultPlan>(
        robust::FaultPlanConfig::single_site(
            shard::shard_fault_seed(7, s, d),
            gpusim::FaultSite::kAtomicDrop, 0.5));
  };
  options.recovery.enabled = true;
  options.recovery.max_retries = 0;
  options.recovery.fallback_to_unfused = false;
  const SolveResult run =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(run.shards.has_value());
  const auto& faulty = run.shards->slices[1];
  EXPECT_EQ(faulty.dispatches, 2);
  EXPECT_TRUE(faulty.recovery.gave_up);
  EXPECT_TRUE(run.recovery.gave_up);  // whole-request verdict
  // The merge still completes: V has full length even though one shard's
  // last attempt stayed flagged.
  EXPECT_EQ(run.v.size(), 384u);
}

// Per-shard recovery (retries within one dispatch) composes with the
// factory: a transient fault recovered inside the shard never triggers a
// re-dispatch.
TEST(ShardRunnerTest, InShardRecoveryAvoidsRedispatch) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(512, 256, 16, 13);
  RunOptions options;
  options.shards.count = 4;
  options.shards.axis = ShardAxis::kM;
  options.shards.injector_factory = fault_one(/*shard=*/1, /*dispatch=*/0);
  options.recovery.enabled = true;  // default retry budget
  const SolveResult run =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(run.shards.has_value());
  const auto& slice = run.shards->slices[1];
  // The shard recovered on its own device (the retry re-seeds the
  // injector stream; the aggressive drop rate still fires, but detection
  // plus retries either recover or give up — in both cases dispatches
  // stay within budget and other shards never retry).
  EXPECT_GE(slice.recovery.attempts, 2);
  for (const auto& other : run.shards->slices) {
    if (other.index != 1) {
      EXPECT_EQ(other.recovery.attempts, 1) << "shard " << other.index;
    }
  }
}

// N-axis sharding disables the unfused fallback (there is no staged
// reduction to replay) but keeps detection and retries.
TEST(ShardRunnerTest, NAxisShardsKeepRecoveryWithoutFallback) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(256, 512, 16, 19);
  const SolveResult oracle =
      pipelines::solve(instance, params, Backend::kSimFused, RunOptions{});
  RunOptions options;
  options.shards.count = 4;
  options.shards.axis = ShardAxis::kN;
  // N shards run the staged (non-atomic) reduction, so fault the global
  // store datapath instead — dense enough that detection is certain.
  options.shards.injector_factory =
      [](std::size_t s, int d) -> std::shared_ptr<gpusim::FaultInjector> {
    if (s != 3 || d != 0) return nullptr;
    return std::make_shared<robust::FaultPlan>(
        robust::FaultPlanConfig::single_site(
            shard::shard_fault_seed(5, s, d),
            gpusim::FaultSite::kGlobalMemory, 0.5));
  };
  options.recovery.enabled = true;
  options.recovery.max_retries = 0;
  const SolveResult run =
      pipelines::solve(instance, params, Backend::kSimFused, options);
  ASSERT_TRUE(run.shards.has_value());
  EXPECT_EQ(run.shards->axis, ShardAxis::kN);
  EXPECT_FALSE(run.shards->slices[3].recovery.fallback_used);
  EXPECT_FALSE(run.recovery.gave_up);
  EXPECT_TRUE(bitwise_equal(oracle.v, run.v));
}

// A request cancelled while shard 0 runs starts no further shard: the
// factory, called once per dispatch a shard starts, is never asked for
// shards 1..3, and the token's own reason reaches the caller.
TEST(ShardRunnerTest, CancelledRequestStartsNoFurtherShard) {
  const core::KernelParams params;
  const workload::Instance instance = make_case(512, 256, 16, 5);
  exec::CancelToken cancel;
  int dispatches = 0;
  RunOptions options;
  options.cancel = &cancel;
  options.shards.count = 4;
  options.shards.axis = ShardAxis::kM;
  options.shards.workers = 1;
  options.shards.injector_factory =
      [&](std::size_t, int) -> std::shared_ptr<gpusim::FaultInjector> {
    ++dispatches;
    cancel.cancel();
    return nullptr;
  };
  try {
    pipelines::solve(instance, params, Backend::kSimFused, options);
    FAIL() << "a cancelled sharded solve returned";
  } catch (const exec::Cancelled& e) {
    EXPECT_STREQ(e.what(), "ksum: request cancelled");
  }
  EXPECT_EQ(dispatches, 1);
}

}  // namespace
}  // namespace ksum
