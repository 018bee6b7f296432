// Property tests of the shard layer (tests/common/prop.h): shard-count
// invariance over random shapes (including ragged last shards) and slice
// fidelity.
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "common/prop.h"
#include "pipelines/solver.h"
#include "shard/runner.h"
#include "workload/point_generators.h"

namespace ksum {
namespace {

using pipelines::Backend;
using pipelines::RunOptions;
using shard::ShardAxis;

struct ShardCase {
  workload::Instance instance;
  std::size_t count = 1;
  ShardAxis axis = ShardAxis::kM;
  int workers = 1;
};

ShardCase make_shard_case(prop::Gen& gen, std::size_t scale) {
  ShardCase c;
  workload::ProblemSpec spec;
  // Scale bounds the shape; ragged sizes are the common case by design.
  spec.m = gen.size_in(1, std::max<std::size_t>(scale, 1));
  spec.n = gen.size_in(1, std::max<std::size_t>(scale, 1));
  spec.k = gen.size_in(1, 24);
  spec.seed = gen.next_u64();
  c.instance = workload::make_instance(spec);
  c.count = gen.size_in(1, 8);
  c.axis = gen.int_in(0, 1) == 0 ? ShardAxis::kM : ShardAxis::kN;
  c.workers = gen.int_in(1, 4);
  return c;
}

// Shard-count invariance: any admissible (count, axis, workers) produces
// exactly the bytes of the unsharded run.
TEST(ShardPropTest, ShardCountInvariance) {
  prop::Config config;
  config.iterations = 8;
  config.max_scale = 512;
  const core::KernelParams params;
  prop::check(
      "shard-count-invariance", config,
      [](prop::Gen& gen, std::size_t scale) {
        return make_shard_case(gen, scale);
      },
      [&](const ShardCase& c) {
        const pipelines::SolveResult oracle = pipelines::solve(
            c.instance, params, Backend::kSimFused, RunOptions{});
        RunOptions options;
        options.shards.count = c.count;
        options.shards.axis = c.axis;
        options.shards.workers = c.workers;
        const pipelines::SolveResult sharded =
            pipelines::solve(c.instance, params, Backend::kSimFused, options);
        if (oracle.v.size() != sharded.v.size()) return false;
        return std::memcmp(oracle.v.data(), sharded.v.data(),
                           oracle.v.size() * sizeof(float)) == 0;
      });
}

struct SliceCase {
  workload::Instance instance;
  ShardAxis axis = ShardAxis::kM;
  shard::ShardRange range;
};

SliceCase make_slice_case(prop::Gen& gen, std::size_t scale) {
  SliceCase c;
  workload::ProblemSpec spec;
  spec.m = gen.size_in(2, std::max<std::size_t>(scale, 2));
  spec.n = gen.size_in(2, std::max<std::size_t>(scale, 2));
  spec.k = gen.size_in(1, 16);
  spec.seed = gen.next_u64();
  c.instance = workload::make_instance(spec);
  c.axis = gen.int_in(0, 1) == 0 ? ShardAxis::kM : ShardAxis::kN;
  const std::size_t dim =
      c.axis == ShardAxis::kM ? spec.m : spec.n;
  c.range.begin = gen.size_in(0, dim - 1);
  c.range.end = gen.size_in(c.range.begin + 1, dim);
  return c;
}

// slice_instance copies exactly the rows/columns of its range.
TEST(ShardPropTest, SliceInstanceFidelity) {
  prop::Config config;
  config.iterations = 12;
  config.max_scale = 256;
  prop::check(
      "slice-instance-fidelity", config,
      [](prop::Gen& gen, std::size_t scale) {
        return make_slice_case(gen, scale);
      },
      [](const SliceCase& c) {
        const workload::Instance slice =
            shard::slice_instance(c.instance, c.axis, c.range);
        const std::size_t k = c.instance.spec.k;
        if (c.axis == ShardAxis::kM) {
          if (slice.spec.m != c.range.size() ||
              slice.spec.n != c.instance.spec.n) {
            return false;
          }
          for (std::size_t r = 0; r < slice.spec.m; ++r) {
            for (std::size_t d = 0; d < k; ++d) {
              if (slice.a.at(r, d) != c.instance.a.at(c.range.begin + r, d)) {
                return false;
              }
            }
          }
          return std::memcmp(slice.b.data(), c.instance.b.data(),
                             k * c.instance.spec.n * sizeof(float)) == 0 &&
                 std::memcmp(slice.w.data(), c.instance.w.data(),
                             c.instance.spec.n * sizeof(float)) == 0;
        }
        if (slice.spec.n != c.range.size() ||
            slice.spec.m != c.instance.spec.m) {
          return false;
        }
        for (std::size_t j = 0; j < slice.spec.n; ++j) {
          if (slice.w[j] != c.instance.w[c.range.begin + j]) return false;
          for (std::size_t d = 0; d < k; ++d) {
            if (slice.b.at(d, j) != c.instance.b.at(d, c.range.begin + j)) {
              return false;
            }
          }
        }
        return std::memcmp(slice.a.data(), c.instance.a.data(),
                           c.instance.spec.m * k * sizeof(float)) == 0;
      });
}

}  // namespace
}  // namespace ksum
