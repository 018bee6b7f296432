// Admission and the one request executor: checked arena arithmetic, the
// refusal classes, the exact (warm-device) arena of each solution, and
// pipelines::execute's status taxonomy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "exec/thread_pool.h"
#include "gpusim/device.h"
#include "pipelines/admission.h"
#include "pipelines/batch.h"
#include "shard/plan.h"

namespace ksum {
namespace {

using pipelines::Backend;
using pipelines::RunOptions;

constexpr std::size_t kTwo32 = std::size_t{1} << 32;

workload::ProblemSpec shape(std::size_t m, std::size_t n, std::size_t k) {
  workload::ProblemSpec spec;
  spec.m = m;
  spec.n = n;
  spec.k = k;
  return spec;
}

std::string refusal(const workload::ProblemSpec& spec, Backend backend,
                    const RunOptions& options = {}) {
  try {
    pipelines::admit(spec, backend, options);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "admitted " << spec.to_string();
  return "";
}

TEST(CheckedArena, UnfusedTwo32SquareOverflows) {
  EXPECT_THROW(pipelines::required_device_bytes(kTwo32, kTwo32, 8,
                                                /*with_intermediate=*/true,
                                                128),
               Error);
  // The fused arena of the same shape is huge but representable.
  EXPECT_GT(pipelines::required_device_bytes(kTwo32, kTwo32, 8, false, 128),
            std::size_t{1} << 58);
}

TEST(CheckedArena, DeepTallShapeOverflows) {
  EXPECT_THROW(pipelines::required_device_bytes(3000000000, 128, 2000000000,
                                                false, 128),
               Error);
  EXPECT_THROW(pipelines::knn_device_bytes(3000000000, 2, 2000000000, 8,
                                           /*unfused=*/false),
               Error);
}

TEST(CheckedArena, SmallShapesKeepTheirFormula) {
  // (m·k + k·n + 3m + 2n + m·(n/tile_n) + m)·4 + 1 MiB, unchanged.
  EXPECT_EQ(pipelines::required_device_bytes(256, 128, 8, false, 128),
            (256u * 8 + 8 * 128 + 3 * 256 + 2 * 128 + 256 + 256) * 4 +
                (1u << 20));
  EXPECT_EQ(pipelines::knn_device_bytes(128, 256, 8, 4, true),
            (128u * 8 + 8 * 256 + 2 * (128 + 256) + 128 * 256 +
             128 * (256 / 128 + 2) * 2 * 4) * 4 + (1u << 20));
}

// The warm device a fused request needs is its fused arena: no M×N
// intermediate, unless recovery may fall back to the cuBLAS pipeline.
TEST(Admission, FusedArenaIsTheWarmDeviceCapacity) {
  const auto spec = shape(1000, 500, 10);
  // Padded to the paper tile: 1024 × 512 × 16.
  EXPECT_EQ(pipelines::admit(spec, Backend::kSimFused, {}),
            pipelines::required_device_bytes(1024, 512, 16, false, 128));

  RunOptions robust;
  robust.recovery.enabled = true;
  EXPECT_EQ(pipelines::admit(spec, Backend::kSimFused, robust),
            pipelines::required_device_bytes(1024, 512, 16, true, 128));
  EXPECT_EQ(pipelines::admit(spec, Backend::kSimCudaUnfused, {}),
            pipelines::required_device_bytes(1024, 512, 16, true, 128));
  EXPECT_EQ(pipelines::admit(spec, Backend::kCpuDirect, {}), 0u);
}

TEST(Admission, AdmittedArenaHoldsTheRun) {
  // A warm device of exactly the admitted capacity is the one the run uses.
  workload::ProblemSpec spec = shape(200, 130, 9);
  const auto instance = workload::make_instance(spec);
  const auto params = core::params_from_spec(spec);
  for (const bool robust : {false, true}) {
    RunOptions options;
    options.recovery.enabled = robust;
    gpusim::Device warm(options.device,
                        pipelines::admit(spec, Backend::kSimFused, options));
    options.warm_device = &warm;
    pipelines::solve(instance, params, Backend::kSimFused, options);
    EXPECT_GT(warm.counters().kernel_launches, 0u) << "robust=" << robust;
  }
}

TEST(Admission, RefusalClasses) {
  EXPECT_NE(refusal(shape(3000000000, 2, 2000000000), Backend::kSimFused)
                .find("overflows size_t"),
            std::string::npos);
  EXPECT_NE(refusal(shape(kTwo32, kTwo32, 8), Backend::kSimFused)
                .find("--shards=auto"),
            std::string::npos);
  RunOptions two;
  two.shards.count = 2;
  EXPECT_NE(refusal(shape(65536, 65536, 8), Backend::kSimCudaUnfused, two)
                .find("each of the 2 shards"),
            std::string::npos);
  // The same shape fits once --shards=auto picks the count. One worker
  // keeps one shard's device in host memory at a time, so the host-memory
  // rule admits it on any machine.
  RunOptions autoshard;
  autoshard.shards.count = 0;
  autoshard.shards.workers = 1;
  EXPECT_LE(pipelines::admit(shape(65536, 65536, 8),
                             Backend::kSimCudaUnfused, autoshard),
            autoshard.device.shard_arena_bytes);
  // The per-device arena is the profile's: a bigger board admits more. The
  // shape's 1 GiB intermediate is over the default arena, yet small enough
  // for host memory.
  RunOptions big_board;
  big_board.device.shard_arena_bytes = std::size_t{1} << 40;
  EXPECT_NE(refusal(shape(16384, 16384, 8), Backend::kSimCudaUnfused)
                .find("per-device arena"),
            std::string::npos);
  EXPECT_NO_THROW(pipelines::admit(shape(16384, 16384, 8),
                                   Backend::kSimCudaUnfused, big_board));
  EXPECT_THROW(pipelines::admit_knn(shape(kTwo32, kTwo32, 8),
                                    pipelines::KnnSolution::kFused, 8, {}),
               Error);
}

// Host bytes of an (m, n, k) instance: A, B and W in floats.
std::size_t instance_bytes(std::size_t m, std::size_t n, std::size_t k) {
  return (m * k + k * n + n) * 4;
}

// The host bytes a refusal reports holding.
std::size_t refused_host_bytes(const workload::ProblemSpec& spec,
                               const RunOptions& options) {
  const std::string message = refusal(spec, Backend::kSimFused, options);
  const std::size_t at = message.find(" holds ");
  EXPECT_NE(message.find("bytes of host memory"), std::string::npos)
      << message;
  if (at == std::string::npos) return 0;
  return std::stoull(message.substr(at + 7));
}

// A sharded request holds its instance plus, on each worker, one shard:
// the largest slice (and its zero-padded copy when ragged) and the shard's
// device arena. An M shard replicates B (k×n), so with N = 2^25 the 1.1 GiB
// instance grows to about 2.4 GiB per worker: hundreds of GiB in all, over
// the memory of any machine that holds the instance, and the refusal
// reports the count. The arena is raised so that every shard fits its
// device and only host memory refuses.
TEST(Admission, HostBytesCountLiveShardSlices) {
  const std::size_t n = std::size_t{1} << 25;
  RunOptions options;
  options.device.shard_arena_bytes = std::size_t{1} << 32;
  options.shards.axis = shard::ShardAxis::kM;
  options.shards.count = 256;
  options.shards.workers = 200;
  const std::size_t m = 256 * 128;
  const shard::ShardPlan plan =
      shard::plan_shards(m, n, 8, options, pipelines::Solution::kFused);
  ASSERT_EQ(plan.count(), 256u);
  const std::size_t rows = plan.ranges.front().size();
  EXPECT_EQ(refused_host_bytes(shape(m, n, 8), options),
            instance_bytes(m, n, 8) +
                200 * (instance_bytes(rows, n, 8) + plan.arena_bytes));

  // One worker per shard by default, capped at the pool's thread limit. A
  // ragged N makes every shard pad its slice.
  options.shards.count = 300;
  options.shards.workers = 0;
  const std::size_t tall = 300 * 128;
  const shard::ShardPlan ragged = shard::plan_shards(
      tall, n + 2, 8, options, pipelines::Solution::kFused);
  ASSERT_EQ(ragged.count(), 300u);
  const std::size_t slice = ragged.ranges.front().size();
  EXPECT_EQ(refused_host_bytes(shape(tall, n + 2, 8), options),
            instance_bytes(tall, n + 2, 8) +
                std::size_t{exec::ThreadPool::kMaxThreads} *
                    (instance_bytes(slice, n + 2, 8) +
                     instance_bytes(slice, n + 128, 8) + ragged.arena_bytes));
}

TEST(Execute, RefusedRequestIsInvalidAndNeverRuns) {
  pipelines::BatchRequest request;
  request.spec = shape(kTwo32, kTwo32, 8);
  request.params = core::params_from_spec(request.spec);
  const auto result = pipelines::execute(request);
  EXPECT_EQ(result.status, StatusCode::kInvalid);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("--shards=auto"), std::string::npos);
  EXPECT_FALSE(result.solve.report.has_value());
}

TEST(Execute, VerifiedRequestPassesTheOracleRule) {
  pipelines::BatchRequest request;
  request.spec = shape(130, 200, 9);
  request.params = core::params_from_spec(request.spec);
  request.verify = true;
  const auto result = pipelines::execute(request);
  EXPECT_EQ(result.status, StatusCode::kOk);
  EXPECT_TRUE(result.verified);
  EXPECT_LT(result.oracle_rel_error, 5e-3);
}

// A treecode result is held to the ε contract entry by entry: each entry's
// error within ε plus that entry's own dense slack, never the slack of the
// largest entry.
TEST(CheckOracle, TreeBudgetIsPerEntry) {
  const auto spec = shape(256, 512, 4);
  const auto instance = workload::make_instance(spec);
  const auto params = core::params_from_spec(spec);
  const pipelines::SolveResult exact =
      pipelines::solve(instance, params, Backend::kCpuDirect);
  const auto slack = [&](std::size_t i) {
    return 5e-3 * std::max(1e-2, std::abs(double(exact.v[i])));
  };
  std::size_t small = 0, large = 0;
  for (std::size_t i = 0; i < exact.v.size(); ++i) {
    if (slack(i) < slack(small)) small = i;
    if (slack(i) > slack(large)) large = i;
  }
  ASSERT_LT(4 * slack(small), slack(large));

  const auto passes = [&](std::size_t i, double error, double eps) {
    pipelines::SolveResult result = exact;
    result.v[i] = static_cast<float>(double(result.v[i]) + error);
    if (eps > 0) {
      result.tree.emplace();
      result.tree->eps = eps;
    }
    return pipelines::check_oracle(instance, params, result).ok;
  };
  // Twice the small entry's slack fails the dense rule. With a tiny ε it
  // is within the largest entry's slack but over its own: refused.
  const double error = 2 * slack(small);
  EXPECT_FALSE(passes(small, error, 0));
  EXPECT_FALSE(passes(small, error, 1e-9));
  // With ε covering it, the request's result passes.
  EXPECT_TRUE(passes(small, error, error));
}

TEST(Execute, FailureClassification) {
  const auto classify = [](auto thrower) {
    try {
      thrower();
    } catch (...) {
      return pipelines::current_failure().status;
    }
    return StatusCode::kOk;
  };
  EXPECT_EQ(classify([] { throw exec::Cancelled("late"); }),
            StatusCode::kTimeout);
  EXPECT_EQ(classify([] { throw Error("bad"); }), StatusCode::kInvalid);
  EXPECT_EQ(classify([] { throw InternalError("bug"); }),
            StatusCode::kInternal);
  EXPECT_EQ(classify([] { throw 42; }), StatusCode::kInternal);
}

}  // namespace
}  // namespace ksum
