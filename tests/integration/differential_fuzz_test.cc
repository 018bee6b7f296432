// Differential fuzzing across the solver backends on seeded random shapes,
// deliberately including sizes that are not multiples of the 128×128 tile
// or the rank-8 mainloop step (the padding path in pipelines::solve).
//
// Tolerance: the simulated kernels and the host oracle evaluate the same
// float32 expression in different association orders, so results agree to
// accumulation round-off, not bit-exactly. We bound max_rel_diff with a
// 1e-2 absolute floor (entries below the floor are compared absolutely) at
// 5e-3 — the repo-wide bound for non-cancelling workloads, a few hundred
// float32 ULPs at these summation lengths (documented in docs/TESTING.md).
//
// The combos are embarrassingly parallel (each worker's pipelines build
// private Devices), so they run on the exec::ThreadPool: workers only
// compute per-case records into their own slot (exec::map_ordered), and all
// gtest assertions happen on the main thread afterwards, in submission
// order. KSUM_TEST_THREADS overrides the worker count (default: hardware
// concurrency) — results are identical for any value, only wall-clock
// changes. This suite is also the TSan job's main workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <optional>
#include <vector>

#include "blas/vector_ops.h"
#include "common/rng.h"
#include "config/device_spec.h"
#include "config/profiles/device_profile.h"
#include "core/exact.h"
#include "exec/batch_engine.h"
#include "pipelines/solver.h"
#include "shard/types.h"
#include "tune/tile_search.h"
#include "tune/tuning_cache.h"
#include "workload/point_generators.h"

namespace ksum {
namespace {

using pipelines::Backend;

struct FuzzCase {
  std::size_t m, n, k;
  std::uint64_t seed;
};

// Full cross of the ragged/aligned extremes: 6 × 6 × 4 = 144 seeded combos
// (well past the 50 the test plan requires); each gets its own seed.
std::vector<FuzzCase> fuzz_cases() {
  const std::size_t ms[] = {1, 7, 127, 129, 200, 1000};
  const std::size_t ns[] = {1, 7, 127, 129, 200, 1000};
  const std::size_t ks[] = {1, 8, 9, 250};
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 1000;
  for (std::size_t m : ms) {
    for (std::size_t n : ns) {
      for (std::size_t k : ks) {
        cases.push_back({m, n, k, seed++});
      }
    }
  }
  return cases;
}

double diff(const Vector& a, const Vector& b) {
  return blas::max_rel_diff(a.span(), b.span(), 1e-2);
}

constexpr double kTol = 5e-3;

// Everything a worker measures for one combo; gtest never runs off the main
// thread, so the workers fill these and the assertions replay them in order.
struct AgreeOutcome {
  std::string what;
  std::string unfused_name;
  std::size_t oracle_size = 0;
  std::size_t fused_size = 0;
  double fused_vs_oracle = 0;
  double unfused_vs_oracle = 0;
  double fused_vs_unfused = 0;
};

TEST(DifferentialFuzzTest, BackendsAgreeOnSeededRandomShapes) {
  const auto cases = fuzz_cases();
  ASSERT_GE(cases.size(), 50u);
  exec::ThreadPool pool(exec::env_threads("KSUM_TEST_THREADS"));
  const auto outcomes = exec::map_ordered(
      pool, cases.size(), [&](std::size_t index) {
        const FuzzCase& c = cases[index];
        workload::ProblemSpec spec;
        spec.m = c.m;
        spec.n = c.n;
        spec.k = c.k;
        spec.seed = c.seed;
        spec.bandwidth = 0.9f;
        const auto instance = workload::make_instance(spec);
        const auto params = core::params_from_spec(spec);

        AgreeOutcome out;
        out.what = spec.to_string();

        const auto oracle = pipelines::solve(instance, params,
                                             Backend::kCpuDirect);
        out.oracle_size = oracle.v.size();

        const auto fused = pipelines::solve(instance, params,
                                            Backend::kSimFused);
        out.fused_size = fused.v.size();
        out.fused_vs_oracle = diff(fused.v, oracle.v);

        // Alternate the unfused pipelines so every combo checks fused vs one
        // unfused vs the host oracle while the suite stays well under budget.
        const Backend unfused = index % 2 == 0 ? Backend::kSimCudaUnfused
                                               : Backend::kSimCublasUnfused;
        const auto baseline = pipelines::solve(instance, params, unfused);
        out.unfused_name = to_string(unfused);
        out.unfused_vs_oracle = diff(baseline.v, oracle.v);
        out.fused_vs_unfused = diff(fused.v, baseline.v);
        return out;
      });

  ASSERT_EQ(outcomes.size(), cases.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const AgreeOutcome& out = outcomes[i];
    ASSERT_EQ(out.oracle_size, cases[i].m) << out.what;
    ASSERT_EQ(out.fused_size, cases[i].m) << out.what;
    EXPECT_LT(out.fused_vs_oracle, kTol) << "fused on " << out.what;
    EXPECT_LT(out.unfused_vs_oracle, kTol)
        << out.unfused_name << " on " << out.what;
    EXPECT_LT(out.fused_vs_unfused, kTol)
        << "fused vs " << out.unfused_name << " on " << out.what;
  }
}

struct RobustOutcome {
  std::string what;
  bool has_report = false;
  bool checks_enabled = false;
  bool fault_detected = false;
  int attempts = 0;
  bool sizes_match = false;
  // -1 when the checksum fork left every element bit-identical, else the
  // first perturbed index.
  std::ptrdiff_t first_mismatch = -1;
};

TEST(DifferentialFuzzTest, RobustForkMatchesAndStaysQuiet) {
  // Every 4th combo re-runs fused with the ABFT checks + recovery policy
  // enabled on a fault-free device: the checksum fork must not perturb the
  // result and must raise no false positives (ragged shapes included — the
  // checks audit the padded run).
  const auto cases = fuzz_cases();
  std::vector<FuzzCase> picked;
  for (std::size_t i = 0; i < cases.size(); i += 4) picked.push_back(cases[i]);
  ASSERT_GE(picked.size(), 30u);

  exec::ThreadPool pool(exec::env_threads("KSUM_TEST_THREADS"));
  const auto outcomes = exec::map_ordered(
      pool, picked.size(), [&](std::size_t index) {
        const FuzzCase& c = picked[index];
        workload::ProblemSpec spec;
        spec.m = c.m;
        spec.n = c.n;
        spec.k = c.k;
        spec.seed = c.seed;
        spec.bandwidth = 0.9f;
        const auto instance = workload::make_instance(spec);
        const auto params = core::params_from_spec(spec);

        RobustOutcome out;
        out.what = spec.to_string();

        const auto plain =
            pipelines::solve(instance, params, Backend::kSimFused);

        pipelines::RunOptions robust;
        robust.recovery.enabled = true;  // forces checks on, as the CLI does
        const auto checked =
            pipelines::solve(instance, params, Backend::kSimFused, robust);

        out.has_report = checked.report.has_value();
        if (out.has_report) {
          out.checks_enabled = checked.report->robustness.checks_enabled;
          out.fault_detected = checked.report->robustness.fault_detected();
        }
        out.attempts = checked.recovery.attempts;
        out.sizes_match = checked.v.size() == plain.v.size();
        if (out.sizes_match) {
          for (std::size_t j = 0; j < plain.v.size(); ++j) {
            if (checked.v[j] != plain.v[j]) {
              out.first_mismatch = static_cast<std::ptrdiff_t>(j);
              break;
            }
          }
        }
        return out;
      });

  ASSERT_EQ(outcomes.size(), picked.size());
  for (const RobustOutcome& out : outcomes) {
    ASSERT_TRUE(out.has_report) << out.what;
    EXPECT_TRUE(out.checks_enabled) << out.what;
    EXPECT_FALSE(out.fault_detected)
        << "false positive on fault-free " << out.what;
    EXPECT_EQ(out.attempts, 1) << out.what;  // clean first try
    ASSERT_TRUE(out.sizes_match) << out.what;
    EXPECT_EQ(out.first_mismatch, -1)
        << "checksum fork perturbed V[" << out.first_mismatch << "] on "
        << out.what;
  }
}

struct GeometryOutcome {
  std::string what;
  std::string geometry;
  std::size_t fused_size = 0;
  double fused_vs_oracle = 0;
};

TEST(DifferentialFuzzTest, FusedMatchesOracleUnderRandomTunedGeometries) {
  // Every 3rd combo re-runs fused with a seeded-random tile geometry drawn
  // from the autotuner's viable set (the 24 survivors of the GTX 970
  // budgets), so the fuzz surface covers the whole launchable design space,
  // not just the paper default — including the lcm padding each non-128
  // tile forces.
  std::vector<gpukernels::TileGeometry> viable;
  for (const auto& verdict :
       tune::evaluate_candidates(config::DeviceSpec::gtx970())) {
    if (verdict.viable) viable.push_back(verdict.geometry);
  }
  ASSERT_GE(viable.size(), 10u);

  const auto cases = fuzz_cases();
  std::vector<FuzzCase> picked;
  for (std::size_t i = 0; i < cases.size(); i += 3) picked.push_back(cases[i]);
  ASSERT_GE(picked.size(), 40u);

  exec::ThreadPool pool(exec::env_threads("KSUM_TEST_THREADS"));
  const auto outcomes = exec::map_ordered(
      pool, picked.size(), [&](std::size_t index) {
        const FuzzCase& c = picked[index];
        workload::ProblemSpec spec;
        spec.m = c.m;
        spec.n = c.n;
        spec.k = c.k;
        spec.seed = c.seed;
        spec.bandwidth = 0.9f;
        const auto instance = workload::make_instance(spec);
        const auto params = core::params_from_spec(spec);

        // Per-case seeded draw keeps the geometry a pure function of the
        // case, independent of worker scheduling.
        Rng rng(c.seed * 7919 + 13);
        const auto& geometry = viable[rng.next_below(viable.size())];

        GeometryOutcome out;
        out.what = spec.to_string();
        out.geometry = geometry.to_string();

        const auto oracle =
            pipelines::solve(instance, params, Backend::kCpuDirect);
        pipelines::RunOptions options;
        options.mainloop.geometry = geometry;
        const auto fused =
            pipelines::solve(instance, params, Backend::kSimFused, options);
        out.fused_size = fused.v.size();
        out.fused_vs_oracle = diff(fused.v, oracle.v);
        return out;
      });

  ASSERT_EQ(outcomes.size(), picked.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const GeometryOutcome& out = outcomes[i];
    ASSERT_EQ(out.fused_size, picked[i].m)
        << out.what << " @ " << out.geometry;
    EXPECT_LT(out.fused_vs_oracle, kTol)
        << "fused @ " << out.geometry << " on " << out.what;
  }
}

struct ProfileOutcome {
  std::string what;
  std::size_t fused_size = 0;
  double fused_vs_oracle = 0;
  bool matches_gtx970 = true;
  bool report_present = false;
  double titanx_seconds = 0;
  double gtx970_seconds = 0;
};

TEST(DifferentialFuzzTest, FusedMatchesOracleUnderNonDefaultProfile) {
  // Every 4th combo (offset 2, so the subset differs from the robust leg)
  // re-runs fused under the titanx-maxwell profile. The functional
  // contract is architecture-independence: the simulated kernels compute
  // the same float32 expression in the same order whatever the device
  // geometry, so the result must stay within the oracle tolerance AND be
  // byte-identical to the gtx970 run — only modelled time and energy may
  // move with the profile.
  const auto titanx = config::profiles::builtin("titanx-maxwell");
  const auto cases = fuzz_cases();
  std::vector<FuzzCase> picked;
  for (std::size_t i = 2; i < cases.size(); i += 4) {
    picked.push_back(cases[i]);
  }
  ASSERT_GE(picked.size(), 30u);

  exec::ThreadPool pool(exec::env_threads("KSUM_TEST_THREADS"));
  const auto outcomes = exec::map_ordered(
      pool, picked.size(), [&](std::size_t index) {
        const FuzzCase& c = picked[index];
        workload::ProblemSpec spec;
        spec.m = c.m;
        spec.n = c.n;
        spec.k = c.k;
        spec.seed = c.seed;
        spec.bandwidth = 0.9f;
        const auto instance = workload::make_instance(spec);
        const auto params = core::params_from_spec(spec);

        ProfileOutcome out;
        out.what = spec.to_string();

        const auto oracle =
            pipelines::solve(instance, params, Backend::kCpuDirect);
        const auto reference =
            pipelines::solve(instance, params, Backend::kSimFused);

        pipelines::RunOptions options;
        options.device = titanx.device;
        options.timing = titanx.timing;
        options.energy = titanx.energy;
        const auto fused =
            pipelines::solve(instance, params, Backend::kSimFused, options);
        out.fused_size = fused.v.size();
        out.fused_vs_oracle = diff(fused.v, oracle.v);
        out.matches_gtx970 =
            fused.v.size() == reference.v.size() &&
            std::memcmp(fused.v.data(), reference.v.data(),
                        reference.v.size() * sizeof(float)) == 0;
        if (fused.report.has_value() && reference.report.has_value()) {
          out.report_present = true;
          out.titanx_seconds = fused.report->seconds;
          out.gtx970_seconds = reference.report->seconds;
        }
        return out;
      });

  ASSERT_EQ(outcomes.size(), picked.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ProfileOutcome& out = outcomes[i];
    ASSERT_EQ(out.fused_size, picked[i].m) << out.what;
    EXPECT_LT(out.fused_vs_oracle, kTol)
        << "fused@titanx-maxwell on " << out.what;
    EXPECT_TRUE(out.matches_gtx970)
        << out.what << ": changing the device profile perturbed the "
        << "functional result";
    ASSERT_TRUE(out.report_present) << out.what;
    EXPECT_GT(out.titanx_seconds, 0) << out.what;
    EXPECT_NE(out.titanx_seconds, out.gtx970_seconds)
        << out.what << ": 24-SM timing identical to 13-SM timing — the "
        << "profile did not reach the timing model";
  }
}

struct ShardOutcome {
  std::string what;
  std::size_t shard_count = 0;
  // One entry per worker count {1, 2, 8}.
  std::array<bool, 3> byte_identical{};
  std::array<bool, 3> counters_match{};
};

TEST(DifferentialFuzzTest, ShardedRunsMatchUnshardedByteForByte) {
  // Every 4th combo re-runs fused through the shard layer (counts cycling
  // 2/3/8, axes alternating M/N) at 1, 2, and 8 workers. The contract is
  // stronger than the cross-backend tolerance above: sharding the SAME
  // backend must reproduce the unsharded bytes exactly, and the merged
  // event-counter totals must not depend on the worker count
  // (docs/SHARDING.md §Determinism).
  const auto cases = fuzz_cases();
  std::vector<FuzzCase> picked;
  for (std::size_t i = 0; i < cases.size(); i += 4) picked.push_back(cases[i]);
  ASSERT_GE(picked.size(), 30u);

  const std::size_t shard_counts[] = {2, 3, 8};
  const int worker_counts[] = {1, 2, 8};

  exec::ThreadPool pool(exec::env_threads("KSUM_TEST_THREADS"));
  const auto outcomes = exec::map_ordered(
      pool, picked.size(), [&](std::size_t index) {
        const FuzzCase& c = picked[index];
        workload::ProblemSpec spec;
        spec.m = c.m;
        spec.n = c.n;
        spec.k = c.k;
        spec.seed = c.seed;
        spec.bandwidth = 0.9f;
        const auto instance = workload::make_instance(spec);
        const auto params = core::params_from_spec(spec);

        ShardOutcome out;
        out.shard_count = shard_counts[index % 3];
        const shard::ShardAxis axis = index % 2 == 0 ? shard::ShardAxis::kM
                                                     : shard::ShardAxis::kN;
        out.what = spec.to_string();
        out.what += " shards=";
        out.what += std::to_string(out.shard_count);
        out.what += " axis=";
        out.what += shard::to_string(axis);

        const auto oracle =
            pipelines::solve(instance, params, Backend::kSimFused);

        std::optional<gpusim::Counters> reference_total;
        for (std::size_t w = 0; w < 3; ++w) {
          pipelines::RunOptions options;
          options.shards.count = out.shard_count;
          options.shards.axis = axis;
          options.shards.workers = worker_counts[w];
          const auto sharded =
              pipelines::solve(instance, params, Backend::kSimFused, options);
          out.byte_identical[w] =
              sharded.v.size() == oracle.v.size() &&
              std::memcmp(sharded.v.data(), oracle.v.data(),
                          oracle.v.size() * sizeof(float)) == 0;
          if (!sharded.report.has_value()) continue;
          if (!reference_total.has_value()) {
            reference_total = sharded.report->total;
            out.counters_match[w] = true;
          } else {
            out.counters_match[w] =
                *reference_total == sharded.report->total;
          }
        }
        return out;
      });

  ASSERT_EQ(outcomes.size(), picked.size());
  for (const ShardOutcome& out : outcomes) {
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_TRUE(out.byte_identical[w])
          << out.what << " diverged from the unsharded run at workers="
          << (w == 0 ? 1 : (w == 1 ? 2 : 8));
      EXPECT_TRUE(out.counters_match[w])
          << out.what << " merged counters changed with the worker count";
    }
  }
}

struct TreeOutcome {
  std::string what;
  // One entry per ε in {1e-2, 1e-4, 1e-6}: the achieved ∞-norm error vs
  // the host oracle and the float-round-off slack the dense paths already
  // get (kTol against the 1e-2 floor — docs/TESTING.md).
  std::array<bool, 3> has_report{};
  std::array<double, 3> max_abs_err{};
  double slack = 0;
  // Determinism at the cycled ε: shard count 3 at 1/2/8 workers plus the
  // explicit 1-shard run, all against the unsharded reference bytes.
  std::array<bool, 4> byte_identical{};
  // The cycled-ε run repeated under each built-in device profile: profiles
  // move the timing/energy model only, so V — and with it the ε contract
  // just asserted — must be byte-identical on all three.
  std::array<bool, 3> profile_identical{};
};

TEST(DifferentialFuzzTest, TreecodeMeetsEpsAgainstTheOracle) {
  // Every 4th combo (offset 1 — disjoint from the robust and profile legs)
  // re-runs fused through the treecode at ε ∈ {1e-2, 1e-4, 1e-6}. The
  // ε contract is |V_tree − V_oracle|∞ ≤ ε plus the repo-wide float slack;
  // on shapes where every pair is near the solver falls back dense and the
  // bound holds trivially. A small bandwidth (vs the dense legs' 0.9)
  // and small boxes make real tree routes common, and high-K combos are
  // skipped — in 250 dimensions nothing is ever far. Replies must also be
  // byte-identical across worker counts {1, 2, 8} and shard counts {1, 3}.
  const auto cases = fuzz_cases();
  std::vector<FuzzCase> picked;
  for (std::size_t i = 1; i < cases.size(); i += 4) {
    if (cases[i].k <= 9) picked.push_back(cases[i]);
  }
  ASSERT_GE(picked.size(), 25u);

  const double eps_ladder[] = {1e-2, 1e-4, 1e-6};
  const int worker_counts[] = {1, 2, 8};

  exec::ThreadPool pool(exec::env_threads("KSUM_TEST_THREADS"));
  const auto outcomes = exec::map_ordered(
      pool, picked.size(), [&](std::size_t index) {
        const FuzzCase& c = picked[index];
        workload::ProblemSpec spec;
        spec.m = c.m;
        spec.n = c.n;
        spec.k = c.k;
        spec.seed = c.seed;
        spec.bandwidth = 0.05f;
        const auto instance = workload::make_instance(spec);
        const auto params = core::params_from_spec(spec);

        TreeOutcome out;
        out.what = spec.to_string();

        const auto oracle =
            pipelines::solve(instance, params, Backend::kCpuDirect);
        for (std::size_t j = 0; j < oracle.v.size(); ++j) {
          const double o = static_cast<double>(oracle.v[j]);
          out.slack =
              std::max(out.slack, kTol * std::max(1e-2, std::abs(o)));
        }

        const auto tree_options = [](double eps) {
          pipelines::RunOptions options;
          options.tree.eps = eps;
          options.tree.box_leaf = 32;
          options.tree.row_leaf = 64;
          return options;
        };

        std::optional<pipelines::SolveResult> reference;
        const std::size_t cycled = index % 3;
        for (std::size_t e = 0; e < 3; ++e) {
          const auto result = pipelines::solve(
              instance, params, Backend::kSimFused, tree_options(eps_ladder[e]));
          out.has_report[e] = result.tree.has_value();
          for (std::size_t j = 0; j < result.v.size(); ++j) {
            out.max_abs_err[e] = std::max(
                out.max_abs_err[e],
                std::abs(static_cast<double>(result.v[j]) -
                         static_cast<double>(oracle.v[j])));
          }
          if (e == cycled) reference = result;
        }

        const auto identical = [&](const pipelines::SolveResult& run) {
          return run.v.size() == reference->v.size() &&
                 std::memcmp(run.v.data(), reference->v.data(),
                             reference->v.size() * sizeof(float)) == 0;
        };
        for (std::size_t w = 0; w < 3; ++w) {
          auto options = tree_options(eps_ladder[cycled]);
          options.shards.count = 3;
          options.shards.workers = worker_counts[w];
          out.byte_identical[w] = identical(pipelines::solve(
              instance, params, Backend::kSimFused, options));
        }
        out.byte_identical[3] = identical(pipelines::solve(
            instance, params, Backend::kSimFused,
            tree_options(eps_ladder[cycled])));
        const char* profile_names[] = {"gtx970", "titanx-maxwell", "modern"};
        for (std::size_t p = 0; p < 3; ++p) {
          const auto dev = config::profiles::resolve(profile_names[p]);
          auto options = tree_options(eps_ladder[cycled]);
          options.device = dev.device;
          options.timing = dev.timing;
          options.energy = dev.energy;
          out.profile_identical[p] = identical(pipelines::solve(
              instance, params, Backend::kSimFused, options));
        }
        return out;
      });

  ASSERT_EQ(outcomes.size(), picked.size());
  for (const TreeOutcome& out : outcomes) {
    for (std::size_t e = 0; e < 3; ++e) {
      const double eps = eps_ladder[e];
      ASSERT_TRUE(out.has_report[e]) << out.what << " eps=" << eps;
      EXPECT_LE(out.max_abs_err[e], eps + out.slack)
          << out.what << " eps=" << eps;
    }
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_TRUE(out.byte_identical[w])
          << out.what << " diverged at shards=3 workers=" << worker_counts[w];
    }
    EXPECT_TRUE(out.byte_identical[3])
        << out.what << " diverged between two identical unsharded runs";
    const char* profile_names[] = {"gtx970", "titanx-maxwell", "modern"};
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_TRUE(out.profile_identical[p])
          << out.what << " diverged under --profile=" << profile_names[p];
    }
  }
}

TEST(DifferentialFuzzTest, TuningCacheReplayIsThreadCountInvariant) {
  // The tuner's survivors execute on the thread pool, but the winner — and
  // therefore the serialised cache — must be a pure function of the
  // requests: replaying the same shapes at 1, 2, and 8 tuner threads has to
  // produce byte-identical cache JSON (the same contract solve_many's
  // deterministic aggregation pins for batch results).
  struct Shape {
    std::size_t m, n, k;
  };
  const std::vector<Shape> shapes = {{200, 200, 8}, {129, 127, 9}};

  std::vector<std::string> dumps;
  for (const int threads : {1, 2, 8}) {
    tune::TuningCache cache;
    tune::TuneOptions options;
    options.threads = threads;
    for (const Shape& s : shapes) {
      const auto entry = cache.get_or_tune(s.m, s.n, s.k,
                                           Backend::kSimFused, options);
      EXPECT_TRUE(entry.geometry.structurally_valid());
    }
    // Memoization: re-tuning the first shape must be a pure lookup that
    // agrees with the stored winner and adds no entry.
    const auto again = cache.get_or_tune(shapes[0].m, shapes[0].n, shapes[0].k,
                                         Backend::kSimFused, options);
    EXPECT_EQ(cache.size(), shapes.size());
    const auto resolved =
        cache.resolve(shapes[0].m, shapes[0].n, shapes[0].k,
                      pipelines::Solution::kFused);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(*resolved, again.geometry);
    EXPECT_FALSE(cache.resolve(1, 2, 3, pipelines::Solution::kFused)
                     .has_value());
    dumps.push_back(cache.to_json().dump());
  }

  ASSERT_EQ(dumps.size(), 3u);
  EXPECT_EQ(dumps[0], dumps[1]) << "1-thread vs 2-thread cache diverged";
  EXPECT_EQ(dumps[0], dumps[2]) << "1-thread vs 8-thread cache diverged";
}

}  // namespace
}  // namespace ksum
