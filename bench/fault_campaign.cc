// Fault-injection campaign for the ABFT subsystem (docs/ROBUSTNESS.md).
//
// Four experiments on a fixed 512×512×16 Gaussian problem:
//
//   1. Detection coverage — for every fault site, sweep the injection rate
//      and run many independently-seeded trials without recovery, counting
//      how often the checks flag a run that received faults, how many of
//      the *harmful* faults (result actually wrong vs the exact oracle)
//      slip through silently, and whether any fault-free trial is flagged
//      (false positives).
//   2. Recovery — the same sites through pipelines::solve() with the
//      detect→retry→fallback policy, verifying the returned result against
//      the oracle.
//   3. Overhead — checks on vs off with no injector attached: the modelled
//      time and energy cost of the second atomic path and (unfused) the
//      colsum audit pass.
//   4. Shard-level localization — the request split over 4 shards with a
//      fault in exactly one: detection stays on that shard, only it is
//      re-dispatched, and the recovered merge is bit-identical to the
//      unsharded run (docs/SHARDING.md).
//
// Environment: KSUM_BENCH_FAST=1 shrinks the trial counts; KSUM_CSV_DIR
// mirrors each table as CSV; KSUM_BENCH_THREADS sets the worker count for
// the detection-coverage trials (default: hardware concurrency). Each trial
// seeds its own FaultPlan and builds private Devices inside run_pipeline,
// so trials run on the exec::ThreadPool and are folded into the table in
// submission order — the printed rows are identical for any thread count.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "blas/vector_ops.h"
#include "common/string_util.h"
#include "core/exact.h"
#include "exec/batch_engine.h"
#include "pipelines/solver.h"
#include "robust/fault_plan.h"
#include "shard/types.h"

namespace {

using namespace ksum;

constexpr std::size_t kM = 512, kN = 512, kK = 16;

// A result further than this from the double-precision oracle is *harmful*
// corruption (the clean pipelines land around 1e-3).
constexpr double kHarmTol = 1e-2;

struct SiteSetup {
  gpusim::FaultSite site;
  pipelines::Solution solution;  // pipeline that exercises the site
  double base_rate;              // ≈2 expected faults per run at 1×
};

workload::Instance make_campaign_instance() {
  workload::ProblemSpec spec;
  spec.m = kM;
  spec.n = kN;
  spec.k = kK;
  spec.seed = 2024;
  return workload::make_instance(spec);
}

double rel_error(const Vector& v, const Vector& oracle) {
  return blas::max_rel_diff(v.span(), oracle.span(), 1e-3);
}

// What one detection-coverage trial observed; the fold into counters
// happens on the main thread, in trial order.
struct TrialOutcome {
  bool injected = false;
  bool flagged = false;
  bool harmed = false;
};

}  // namespace

int main() {
  const bool fast = std::getenv("KSUM_BENCH_FAST") != nullptr;
  const int trials = fast ? 8 : 24;

  const auto instance = make_campaign_instance();
  core::KernelParams params;  // gaussian, h=1
  const Vector oracle = core::solve_direct(instance, params);

  // The atomic sites only exist in the fused pipeline's inter-CTA
  // reduction; the global-store site is best exercised by the unfused
  // pipeline, whose C and V stores are both audited. Base rates are tuned
  // to ≈2 expected faults per run given each site's opportunity count.
  const std::vector<SiteSetup> sites = {
      {gpusim::FaultSite::kSharedMemory, pipelines::Solution::kFused, 2e-5},
      {gpusim::FaultSite::kGlobalMemory, pipelines::Solution::kCublasUnfused,
       4e-6},
      {gpusim::FaultSite::kTileLoad, pipelines::Solution::kFused, 3e-5},
      {gpusim::FaultSite::kAtomicDrop, pipelines::Solution::kFused, 2.5e-2},
      {gpusim::FaultSite::kAtomicDouble, pipelines::Solution::kFused,
       2.5e-2},
  };
  const std::vector<double> rate_scales = {1.0, 4.0};

  // ---- 1. Detection coverage ---------------------------------------------
  Table coverage(
      str_format("Fault campaign — detection coverage (M=%zu N=%zu K=%zu, "
                 "%d trials/row)",
                 kM, kN, kK, trials));
  coverage.header({"site", "pipeline", "rate", "faulty runs", "detected",
                   "coverage", "harmful", "silent harm", "false pos"});

  exec::ThreadPool pool(exec::env_threads("KSUM_BENCH_THREADS"));
  int atomic_faulty = 0, atomic_detected = 0;
  int clean_flagged = 0;
  for (const SiteSetup& setup : sites) {
    for (double scale : rate_scales) {
      const double rate = setup.base_rate * scale;
      // Trials are seeded by trial index (never worker id) and share nothing
      // mutable, so any pool size yields the same outcomes.
      const auto outcomes = exec::map_ordered(
          pool, std::size_t(trials), [&](std::size_t trial) {
            robust::FaultPlan plan(robust::FaultPlanConfig::single_site(
                std::uint64_t(trial) + 1, setup.site, rate));
            pipelines::RunOptions options;
            options.checks.enabled = true;
            options.fault_injector = &plan;
            const auto report = pipelines::run_pipeline(
                setup.solution, instance, params, options);
            TrialOutcome out;
            out.injected = plan.total_injected() > 0;
            out.flagged = report.robustness.fault_detected();
            out.harmed = rel_error(report.result, oracle) > kHarmTol;
            return out;
          });
      int faulty = 0, detected = 0, harmful = 0, silent_harm = 0;
      int false_pos = 0;
      for (const TrialOutcome& out : outcomes) {
        if (out.injected) {
          ++faulty;
          if (out.flagged) ++detected;
          if (out.harmed) {
            ++harmful;
            if (!out.flagged) ++silent_harm;
          }
        } else if (out.flagged) {
          ++false_pos;
          ++clean_flagged;
        }
        const bool atomic_site =
            setup.site == gpusim::FaultSite::kAtomicDrop ||
            setup.site == gpusim::FaultSite::kAtomicDouble;
        if (atomic_site && out.injected) {
          ++atomic_faulty;
          if (out.flagged) ++atomic_detected;
        }
      }
      coverage.row(
          {gpusim::to_string(setup.site),
           pipelines::to_string(setup.solution),
           str_format("%.1e", rate), str_format("%d", faulty),
           str_format("%d", detected),
           faulty > 0 ? format_percent(double(detected) / double(faulty))
                      : std::string("n/a"),
           str_format("%d", harmful), str_format("%d", silent_harm),
           str_format("%d", false_pos)});
    }
  }
  bench::emit(coverage, "fault_campaign_coverage");

  // ---- 2. Recovery through solve() ---------------------------------------
  Table recovery(
      "Fault campaign — detect/retry/fallback recovery (fused backend)");
  recovery.header({"site", "rate", "attempts", "faulty attempts", "fallback",
                   "outcome", "err vs oracle"});
  int unrecovered = 0;
  for (const SiteSetup& setup : sites) {
    const double rate = setup.base_rate;
    robust::FaultPlan plan(robust::FaultPlanConfig::single_site(
        /*seed=*/99, setup.site, rate));
    pipelines::RunOptions options;
    options.fault_injector = &plan;
    options.recovery.enabled = true;
    const auto backend = setup.solution == pipelines::Solution::kFused
                             ? pipelines::Backend::kSimFused
                             : pipelines::Backend::kSimCublasUnfused;
    const auto result = pipelines::solve(instance, params, backend, options);
    const double err = rel_error(result.v, oracle);
    const bool ok = !result.recovery.gave_up && err <= kHarmTol;
    if (result.recovery.faults_detected > 0 && !ok) ++unrecovered;
    recovery.row({gpusim::to_string(setup.site), str_format("%.1e", rate),
                  str_format("%d", result.recovery.attempts),
                  str_format("%d", result.recovery.faults_detected),
                  result.recovery.fallback_used ? "yes" : "no",
                  result.recovery.gave_up
                      ? "GAVE UP"
                      : (result.recovery.faults_detected > 0 ? "recovered"
                                                             : "clean"),
                  str_format("%.2e%s", err, err <= kHarmTol ? "" : " (BAD)")});
  }
  bench::emit(recovery, "fault_campaign_recovery");

  // ---- 3. Checking overhead ----------------------------------------------
  Table overhead("Fault campaign — ABFT checking overhead (no faults)");
  overhead.header({"pipeline", "time off", "time on", "overhead",
                   "energy off", "energy on"});
  for (const auto solution : {pipelines::Solution::kFused,
                              pipelines::Solution::kCublasUnfused}) {
    pipelines::RunOptions off;
    pipelines::RunOptions on;
    on.checks.enabled = true;
    const auto base = pipelines::run_pipeline(solution, instance, params, off);
    const auto checked =
        pipelines::run_pipeline(solution, instance, params, on);
    overhead.row({pipelines::to_string(solution),
                  str_format("%.3f ms", base.seconds * 1e3),
                  str_format("%.3f ms", checked.seconds * 1e3),
                  format_percent(checked.seconds / base.seconds - 1.0),
                  str_format("%.4f J", base.energy.total()),
                  str_format("%.4f J", checked.energy.total())});
  }
  bench::emit(overhead, "fault_campaign_overhead");

  // ---- 4. Shard-level fault localization ---------------------------------
  // The request splits over 4 shards; exactly one (shard 2, dispatch 0)
  // gets a faulty device. Detection must localize there, only that shard
  // may be re-dispatched, and the recovered merge must reproduce the
  // unsharded run bit for bit. Every printed field is a pure function of
  // the injector factory, so the table is identical for any worker count.
  Table shard_table(
      "Fault campaign — shard-level localization (4 shards, fault in s2)");
  shard_table.header(
      {"shard", "rows", "dispatches", "attempts", "faults", "verdict"});
  bool shard_ok = true;
  {
    const auto unsharded =
        pipelines::solve(instance, params, pipelines::Backend::kSimFused);
    pipelines::RunOptions options;
    options.shards.count = 4;
    options.shards.axis = shard::ShardAxis::kM;
    options.shards.workers = exec::env_threads("KSUM_BENCH_THREADS");
    // Rate 0.5 rather than 1.0: dropping every atomicAdd would zero the
    // checksum path too and pass the check; 0.5 decorrelates the paths.
    options.shards.injector_factory =
        [](std::size_t s, int d) -> std::shared_ptr<gpusim::FaultInjector> {
      if (s != 2 || d != 0) return nullptr;
      return std::make_shared<robust::FaultPlan>(
          robust::FaultPlanConfig::single_site(
              shard::shard_fault_seed(/*base=*/2024, s, d),
              gpusim::FaultSite::kAtomicDrop, 0.5));
    };
    options.recovery.enabled = true;
    options.recovery.max_retries = 0;  // force the re-dispatch path
    options.recovery.fallback_to_unfused = false;
    const auto run = pipelines::solve(instance, params,
                                      pipelines::Backend::kSimFused, options);
    const bool bit_identical =
        run.v.size() == unsharded.v.size() &&
        std::memcmp(run.v.data(), unsharded.v.data(),
                    run.v.size() * sizeof(float)) == 0;
    if (!run.shards.has_value()) {
      shard_ok = false;
    } else {
      for (const auto& slice : run.shards->slices) {
        const bool faulty_shard = slice.index == 2;
        const bool localized =
            faulty_shard
                ? slice.dispatches == 2 && slice.recovery.faults_detected > 0 &&
                      !slice.recovery.gave_up
                : slice.dispatches == 1 && slice.recovery.faults_detected == 0;
        shard_ok = shard_ok && localized;
        shard_table.row(
            {str_format("s%zu", slice.index),
             str_format("[%zu, %zu)", slice.begin, slice.end),
             str_format("%d", slice.dispatches),
             str_format("%d", slice.recovery.attempts),
             str_format("%d", slice.recovery.faults_detected),
             localized ? (faulty_shard ? "recovered elsewhere" : "clean")
                       : "UNEXPECTED"});
      }
    }
    shard_ok = shard_ok && bit_identical && !run.recovery.gave_up;
    std::printf("shard fault localization: %s (merge %s unsharded run)\n",
                shard_ok ? "PASS" : "FAIL",
                bit_identical ? "bit-identical to" : "DIVERGED from");
  }
  bench::emit(shard_table, "fault_campaign_shard");

  // ---- Acceptance summary -------------------------------------------------
  const double atomic_cov =
      atomic_faulty > 0 ? double(atomic_detected) / double(atomic_faulty)
                        : 1.0;
  std::printf(
      "\natomic-site coverage: %d/%d (%.0f%%), false positives on clean "
      "runs: %d, unrecovered detected faults: %d\n",
      atomic_detected, atomic_faulty, atomic_cov * 100.0, clean_flagged,
      unrecovered);
  const bool pass = atomic_cov >= 0.9 && clean_flagged == 0 &&
                    unrecovered == 0 && shard_ok;
  std::printf("fault campaign: %s\n", pass ? "PASS" : "FAIL");
  bench::write_bench_json("fault_campaign", {});
  return pass ? 0 : 1;
}
