#include "pipelines/solver.h"

#include <cstdint>
#include <utility>

#include "common/error.h"
#include "common/timer.h"
#include "shard/runner.h"
#include "tree/solve.h"
#include "workload/padding.h"

namespace ksum::pipelines {

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kCpuDirect:
      return "cpu-direct";
    case Backend::kCpuExpansion:
      return "cpu-expansion";
    case Backend::kSimFused:
      return "sim-fused";
    case Backend::kSimCudaUnfused:
      return "sim-cuda-unfused";
    case Backend::kSimCublasUnfused:
      return "sim-cublas-unfused";
  }
  return "unknown";
}

bool is_simulated(Backend backend) {
  return backend == Backend::kSimFused ||
         backend == Backend::kSimCudaUnfused ||
         backend == Backend::kSimCublasUnfused;
}

Solution solution_of(Backend backend) {
  switch (backend) {
    case Backend::kSimFused:
      return Solution::kFused;
    case Backend::kSimCudaUnfused:
      return Solution::kCudaUnfused;
    case Backend::kSimCublasUnfused:
      return Solution::kCublasUnfused;
    case Backend::kCpuDirect:
    case Backend::kCpuExpansion:
      break;
  }
  throw Error(to_string(backend) +
              " runs on the host and has no simulated pipeline");
}

std::unique_ptr<robust::FaultPlan> attach_fault_plan(RunOptions& options,
                                                     std::uint64_t seed,
                                                     double rate) {
  if (rate <= 0) return nullptr;
  if (options.shards.enabled()) {
    options.shards.injector_factory =
        [seed, rate](std::size_t s, int d)
        -> std::shared_ptr<gpusim::FaultInjector> {
      return std::make_shared<robust::FaultPlan>(
          robust::FaultPlanConfig::uniform(shard::shard_fault_seed(seed, s, d),
                                           rate));
    };
    return nullptr;
  }
  auto plan = std::make_unique<robust::FaultPlan>(
      robust::FaultPlanConfig::uniform(seed, rate));
  options.fault_injector = plan.get();
  return plan;
}

SolveResult solve(const workload::Instance& instance,
                  const core::KernelParams& params, Backend backend,
                  const RunOptions& options) {
  Timer timer;
  SolveResult out;
  std::optional<workload::Instance> pad_storage;
  // Misused tree options fail fast for every backend (negative eps, host
  // or non-fused backends, fault injection, non-Gaussian kernels).
  if (options.tree.enabled()) {
    tree::validate_options(options, params, backend);
  }
  switch (backend) {
    case Backend::kCpuDirect:
    case Backend::kCpuExpansion:
      KSUM_REQUIRE(!options.shards.enabled(),
                   "sharding applies to the simulated backends only");
      out.v = backend == Backend::kCpuDirect
                  ? core::solve_direct(instance, params)
                  : core::solve_expansion(instance, params);
      break;
    case Backend::kSimFused:
    case Backend::kSimCudaUnfused:
    case Backend::kSimCublasUnfused: {
      const Solution solution = solution_of(backend);

      RunOptions run_options = options;
      const robust::RecoveryPolicy& policy = options.recovery;
      if (policy.enabled) {
        // Recovery without detection is meaningless — force the checks on.
        run_options.checks.enabled = true;
      }

      // Let the tuning cache (or any other resolver) pick a per-problem
      // tile geometry before padding, so the alignment below matches the
      // geometry that actually runs.
      if (options.geometry_resolver != nullptr) {
        const auto chosen = options.geometry_resolver->resolve(
            instance.spec.m, instance.spec.n, instance.spec.k, solution);
        if (chosen.has_value()) {
          run_options.mainloop.geometry = *chosen;
        }
      }

      // Treecode route (src/tree/): build the near/far plan and run the
      // hierarchical evaluation when it applies. The fallback rules (no
      // far-field pair at this eps/shape, an auto-mode cost-model loss,
      // n-axis sharding) drop through to the dense code below with the
      // tree options cleared, so the fallback run is byte-identical to an
      // eps == 0 run; SolveResult::tree records which way it went.
      std::optional<tree::TreeReport> dense_fallback_tree;
      if (run_options.tree.enabled()) {
        tree::TreeDecision decision =
            tree::decide(instance, params, run_options);
        if (decision.use_tree) {
          out = tree::evaluate(instance, params, run_options,
                               std::move(*decision.plan),
                               decision.build_seconds);
          break;
        }
        tree::TreeReport report;
        report.eps = run_options.tree.eps;
        report.used_tree = false;
        report.fallback_reason = decision.fallback_reason;
        report.build_seconds = decision.build_seconds;
        dense_fallback_tree = std::move(report);
        run_options.tree = tree::TreeSpec{};
      }

      // Sharded execution splits the request across several warm devices
      // and merges the results bit-identically to the single-device run —
      // the geometry above is resolved for the *full* shape first, so the
      // shard planner cuts on the same CTA-block boundaries the unsharded
      // run pads to (docs/SHARDING.md).
      if (run_options.shards.enabled()) {
        out = shard::run_sharded(instance, params, backend, run_options);
        out.tree = std::move(dense_fallback_tree);
        break;
      }

      // Ragged shapes embed into the tile geometry by exact zero-padding
      // (workload/padding.h): the first M entries of V are bit-identical to
      // an aligned run's, so the caller-visible result just truncates. The
      // report (and its ABFT verdicts) describes the padded run.
      const auto align =
          gpukernels::solve_alignment(run_options.mainloop.geometry);
      const bool padded = !workload::is_shape_aligned(instance.spec, align.m,
                                                      align.n, align.k);
      const workload::Instance& run_instance =
          padded ? pad_storage.emplace(workload::pad_instance(
                       instance, align.m, align.n, align.k))
                 : instance;

      // Every attempt re-seeds the injector's per-site RNG streams, so a
      // retry draws an independent fault pattern (and a fault-free replay
      // of attempt 0 is reproducible by construction).
      std::uint64_t attempt_id = 0;
      auto run_once = [&](Solution sol) {
        // A deadline that expires mid-recovery stops the retry loop here,
        // before the next attempt burns another full pipeline run.
        if (run_options.cancel != nullptr) run_options.cancel->check();
        if (run_options.fault_injector != nullptr) {
          run_options.fault_injector->begin_attempt(attempt_id);
        }
        ++attempt_id;
        return run_pipeline(sol, run_instance, params, run_options);
      };

      PipelineReport report = run_once(solution);
      if (policy.enabled && report.robustness.fault_detected()) {
        out.recovery.faults_detected = 1;
        for (int r = 0;
             r < policy.max_retries && report.robustness.fault_detected();
             ++r) {
          report = run_once(solution);
          ++out.recovery.attempts;
          if (report.robustness.fault_detected()) {
            ++out.recovery.faults_detected;
          }
        }
        if (report.robustness.fault_detected() &&
            policy.fallback_to_unfused && solution == Solution::kFused) {
          // The fused retries are exhausted; switch to the unfused cuBLAS
          // pipeline (same retry budget), whose intermediate C is audited
          // by an independent column checksum.
          out.recovery.fallback_used = true;
          for (int r = 0;
               r <= policy.max_retries && report.robustness.fault_detected();
               ++r) {
            report = run_once(Solution::kCublasUnfused);
            ++out.recovery.attempts;
            if (report.robustness.fault_detected()) {
              ++out.recovery.faults_detected;
            }
          }
        }
        out.recovery.gave_up = report.robustness.fault_detected();
      }
      if (padded) {
        // Keep only the caller's M rows of the padded V.
        out.v = Vector(instance.spec.m);
        for (std::size_t i = 0; i < instance.spec.m; ++i) {
          out.v[i] = report.result[i];
        }
      } else {
        out.v = std::move(report.result);
      }
      out.report = std::move(report);
      out.tree = std::move(dense_fallback_tree);
      break;
    }
  }
  out.host_seconds = timer.seconds();
  return out;
}

}  // namespace ksum::pipelines
