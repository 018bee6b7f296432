#include "shard/runner.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "exec/batch_engine.h"

namespace ksum::shard {
namespace {

using pipelines::RunOptions;
using pipelines::Solution;

/// Runs per shard: the first, plus one re-run when the shard's own
/// recovery gave up (every retry and fallback still flagged).
constexpr int kMaxDispatches = 2;

/// One shard's contribution to the merge: its last dispatch's result, the
/// staged partials that dispatch exported (kN) and its report.
struct ShardOutcome {
  pipelines::SolveResult result;
  StagedPartials staged;
  ShardSliceReport slice;
};

}  // namespace

workload::Instance slice_instance(const workload::Instance& instance,
                                  ShardAxis axis, const ShardRange& range) {
  KSUM_REQUIRE(range.end > range.begin, "empty shard range");
  const std::size_t k = instance.spec.k;
  workload::Instance out;
  out.spec = instance.spec;
  if (axis == ShardAxis::kM) {
    KSUM_REQUIRE(range.end <= instance.spec.m, "shard range exceeds M");
    out.spec.m = range.size();
    out.a = Matrix(range.size(), k, Layout::kRowMajor);
    // A is row major: a row range is one contiguous block.
    std::memcpy(out.a.data(), instance.a.data() + range.begin * k,
                range.size() * k * sizeof(float));
    out.b = instance.b;
    out.w = instance.w;
    return out;
  }
  KSUM_REQUIRE(axis == ShardAxis::kN, "unresolved shard axis");
  KSUM_REQUIRE(range.end <= instance.spec.n, "shard range exceeds N");
  out.spec.n = range.size();
  out.a = instance.a;
  out.b = Matrix(k, range.size(), Layout::kColMajor);
  // B is col major: a column range is one contiguous block.
  std::memcpy(out.b.data(), instance.b.data() + range.begin * k,
              range.size() * k * sizeof(float));
  out.w = Vector(range.size());
  for (std::size_t j = 0; j < range.size(); ++j) {
    out.w[j] = instance.w[range.begin + j];
  }
  return out;
}

pipelines::SolveResult run_sharded(const workload::Instance& instance,
                                   const core::KernelParams& params,
                                   pipelines::Backend backend,
                                   const RunOptions& options) {
  const Solution solution = pipelines::solution_of(backend);
  const ShardSpec& spec = options.shards;
  KSUM_REQUIRE(options.fault_injector == nullptr,
               "sharded runs cannot take a single fault_injector — one "
               "injector cannot say which device the fault lives on; use "
               "ShardSpec::injector_factory");
  const std::size_t m = instance.spec.m;
  const std::size_t n = instance.spec.n;
  const std::size_t k = instance.spec.k;
  const ShardPlan plan = plan_shards(m, n, k, options, solution);
  const std::size_t count = plan.count();
  const ShardAxis axis = plan.axis;

  const int workers = worker_count(spec, count);

  // Each shard slices its own sub-instance and builds its own device at the
  // plan's largest-shard arena, so at most `workers` of each are live. Both
  // dispatches of a shard reuse that device (reset() makes it bit-identical
  // to a fresh one), and every dispatch draws its faults from the factory's
  // (shard, dispatch) stream, so the output cannot depend on which worker
  // ran which shard. A recovery fallback to the unfused pipeline may need
  // the intermediate matrix too — run_pipeline then builds a one-off fresh
  // device, which is the same bits, just colder.
  const auto run_shard = [&](std::size_t i) {
    // A cancelled request starts no further shard.
    if (options.cancel != nullptr) options.cancel->check();
    ShardOutcome out;
    out.slice.index = i;
    out.slice.begin = plan.ranges[i].begin;
    out.slice.end = plan.ranges[i].end;
    out.slice.dispatches = 0;
    out.slice.recovery.attempts = 0;
    const workload::Instance slice =
        slice_instance(instance, axis, plan.ranges[i]);
    gpusim::Device device(options.device, plan.arena_bytes);
    RunOptions shard_options = options;
    shard_options.shards = ShardSpec{};
    shard_options.geometry_resolver = nullptr;
    shard_options.warm_device = &device;
    if (axis == ShardAxis::kN) {
      // The merge replays the staged reduction, so the shard must run it —
      // and must not fall back to a pipeline that has none.
      shard_options.atomic_reduction = false;
      shard_options.capture_staged_partials = &out.staged;
      shard_options.recovery.fallback_to_unfused = false;
    }
    for (int dispatch = 0; dispatch < kMaxDispatches; ++dispatch) {
      std::shared_ptr<gpusim::FaultInjector> injector;
      if (spec.injector_factory) injector = spec.injector_factory(i, dispatch);
      shard_options.fault_injector = injector.get();
      out.result = pipelines::solve(slice, params, backend, shard_options);
      const robust::RecoveryReport& recovery = out.result.recovery;
      ++out.slice.dispatches;
      out.slice.recovery.attempts += recovery.attempts;
      out.slice.recovery.faults_detected += recovery.faults_detected;
      out.slice.recovery.fallback_used |= recovery.fallback_used;
      out.slice.recovery.gave_up = recovery.gave_up;
      if (!recovery.gave_up) break;
    }
    return out;
  };
  const std::vector<ShardOutcome> shards =
      exec::map_ordered(workers, count, run_shard);

  // Merge in shard-index order. kM writes each shard's rows at its range.
  // kN replays gpukernels::run_partial_reduce over the shards' staged
  // columns: per row, a scalar accumulator starting at 0.0f folded over the
  // column-CTA partials in ascending global index — the identical float
  // additions in the identical order, hence bit-identical to the
  // single-device run.
  pipelines::SolveResult out;
  out.v = Vector(m);
  if (axis == ShardAxis::kM) {
    for (std::size_t i = 0; i < count; ++i) {
      const Vector& rows = shards[i].result.v;
      KSUM_CHECK(rows.size() == plan.ranges[i].size());
      std::copy(rows.data(), rows.data() + rows.size(),
                out.v.data() + plan.ranges[i].begin);
    }
  } else {
    for (const ShardOutcome& shard : shards) {
      KSUM_CHECK(shard.staged.rows >= m && shard.staged.cols > 0 &&
                 shard.staged.data.size() ==
                     shard.staged.rows * shard.staged.cols);
    }
    for (std::size_t row = 0; row < m; ++row) {
      float sum = 0.0f;
      for (const ShardOutcome& shard : shards) {
        const float* partials =
            shard.staged.data.data() + row * shard.staged.cols;
        for (std::size_t j = 0; j < shard.staged.cols; ++j) {
          sum += partials[j];
        }
      }
      out.v[row] = sum;
    }
  }

  // Merged report: kernels concatenated in shard order (names prefixed
  // "s<i>/"), event counters and energy summed, modelled wall time the max
  // over shards (each shard has its own device), FLOP efficiency recomputed
  // for the whole problem.
  pipelines::PipelineReport merged;
  merged.solution = solution;
  merged.m = m;
  merged.n = n;
  merged.k = k;
  bool checks_enabled = true;
  for (std::size_t i = 0; i < count; ++i) {
    KSUM_CHECK(shards[i].result.report.has_value());
    const pipelines::PipelineReport& rep = *shards[i].result.report;
    for (const pipelines::KernelReport& kr : rep.kernels) {
      merged.kernels.push_back(kr);
      std::string name = "s";
      name += std::to_string(i);
      name += '/';
      name += kr.name;
      merged.kernels.back().name = std::move(name);
    }
    merged.total += rep.total;
    merged.energy += rep.energy;
    merged.seconds = std::max(merged.seconds, rep.seconds);
    checks_enabled = checks_enabled && rep.robustness.checks_enabled;
    for (const auto& check : rep.robustness.checks) {
      merged.robustness.checks.push_back(check);
    }
  }
  merged.robustness.checks_enabled = checks_enabled;
  merged.useful_flops = pipelines::pipeline_useful_flops(m, n, k);
  merged.flop_efficiency = gpusim::flop_efficiency(
      options.device, merged.useful_flops, merged.seconds);
  merged.result = out.v;
  out.report = std::move(merged);

  // Whole-request recovery summary: attempts are total pipeline executions
  // across shards and dispatches; gave_up if any shard exhausted every
  // dispatch still flagged.
  out.recovery.attempts = 0;
  ShardReport shard_report;
  shard_report.axis = axis;
  shard_report.workers = workers;
  for (const ShardOutcome& shard : shards) {
    out.recovery.attempts += shard.slice.recovery.attempts;
    out.recovery.faults_detected += shard.slice.recovery.faults_detected;
    out.recovery.fallback_used |= shard.slice.recovery.fallback_used;
    out.recovery.gave_up |= shard.slice.recovery.gave_up;
    shard_report.slices.push_back(shard.slice);
  }
  out.shards = std::move(shard_report);
  return out;
}

}  // namespace ksum::shard
