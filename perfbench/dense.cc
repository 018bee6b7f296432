// fused_dense and unfused_stream: closed-loop, single-thread
// pipelines::solve on one uniform instance.
//
//   fused_dense     kSimFused          2048×2048×64  (the paper's kernel; the
//                   host time goes to the shared-memory bank model and the
//                   fused main loop, global traffic is tiny)
//   unfused_stream  kSimCublasUnfused  4096×4096×32  (the paper's baseline; a
//                   64 MB M×N intermediate streams through the coalescer,
//                   L2 and DRAM, ≫ the modelled 1.75 MB L2)
#include <map>

#include "core/exact.h"
#include "pipelines/solver.h"
#include "trace.h"
#include "workload/point_generators.h"

namespace perfbench {
namespace {

struct DenseWorkload {
  pipelines::Backend backend;
  pipelines::Solution solution;
  std::size_t m, n, k;
};

DenseWorkload dense_workload(const std::string& name) {
  if (name == "fused_dense") {
    return {pipelines::Backend::kSimFused, pipelines::Solution::kFused, 2048,
            2048, 64};
  }
  return {pipelines::Backend::kSimCublasUnfused,
          pipelines::Solution::kCublasUnfused, 4096, 4096, 32};
}

}  // namespace

Result run_dense(const Args& args) {
  const DenseWorkload w = dense_workload(args.workload);
  Result r;

  // --- setup: instance generation, repeated for a steady median -----------
  workload::ProblemSpec spec;
  spec.m = w.m;
  spec.n = w.n;
  spec.k = w.k;
  spec.seed = args.seed;
  std::vector<double> setup;
  workload::Instance instance;
  for (int rep = 0; rep < 11; ++rep) {
    const Clock::time_point start = Clock::now();
    workload::Instance made = workload::make_instance(spec);
    setup.push_back(seconds_since(start));
    instance = std::move(made);
  }
  const core::KernelParams params = core::params_from_spec(spec);

  // --- closed loop of untraced solves ---------------------------------------
  // The traced run follows every untraced solve with a plain replica (spans
  // around the layer calls only), so each span total is compared with an
  // untraced solve of the same moment: host speed drifts on a shared
  // machine.
  std::vector<double> walls;
  std::vector<pipelines::SolveResult> results;
  SpanRecorder spans;
  std::vector<ReplicaRun> plain;
  const Clock::time_point loop_start = Clock::now();
  while (walls.size() < 2 || seconds_since(loop_start) < args.seconds) {
    const Clock::time_point start = Clock::now();
    results.push_back(pipelines::solve(instance, params, w.backend));
    walls.push_back(seconds_since(start));
    if (args.trace) {
      plain.push_back(run_replica(spans, w.solution, instance, params,
                                  /*checks=*/false, nullptr, nullptr));
    }
  }
  const double loop_seconds = seconds_since(loop_start);
  const double wall = median(walls);

  // --- correctness, outside the timed region --------------------------------
  const pipelines::SolveResult oracle =
      pipelines::solve(instance, params, pipelines::Backend::kCpuDirect);
  const pipelines::SolveResult& first = results.front();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const pipelines::SolveResult& res = results[i];
    const bool ok = res.report.has_value() && res.recovery.attempts == 1 &&
                    agrees_with_oracle(res.v, oracle.v) &&
                    same_bits(res.v, first.v) &&
                    same_model(*res.report, *first.report);
    r.check(ok, "solve " + std::to_string(i) +
                    " disagrees with the oracle or with solve 0");
  }
  const pipelines::PipelineReport& report = *first.report;

  if (!args.trace) {
    r.set("setup_s", median(setup), "s");
    r.set("op_wall_p50_ms", wall * 1e3, "ms");
    r.set("ops_per_s", double(walls.size()) / loop_seconds, "1/s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    note("%s: %zu solves, median %.4f s, min %.4f s, modelled %.6e s, "
         "%.6e J",
         args.workload.c_str(), walls.size(), wall, percentile(walls, 0),
         report.seconds, report.energy.total());
    return r;
  }

  // --- traced run: one more replica, observed, for the phase times, the
  // event counts and the CTA capture -----------------------------------------
  PhaseObserver observer;
  const ReplicaRun observed = run_replica(spans, w.solution, instance, params,
                                          false, nullptr, &observer);
  for (const ReplicaRun& replica : plain) {
    r.check(same_bits(replica.v, first.v) && replica.counters == report.total,
            "traced replica V or counters differ from pipelines::solve");
  }
  r.check(same_bits(observed.v, first.v) && observed.counters == report.total,
          "observed replica V or counters differ from pipelines::solve");

  set_model_metrics(r, report.seconds, report.energy.total());
  set_gpusim_counts(r, report.total, wall);
  set_replay_metrics(r, observer, report.total, 0.2);
  std::map<std::string, double> modelled;
  add_modelled(modelled, report);
  std::vector<std::map<std::string, double>> ops;
  std::vector<double> traced, self;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ops.push_back(child_totals(spans, {plain[i].span}));
    traced.push_back(spans.children(plain[i].span));
    self.push_back(walls[i] - traced.back());
  }
  set_kernel_metrics(r, ops, modelled, &observer);
  r.set("workload.make_instance_s", median(setup), "s");
  r.set("pipelines.self_s", median(self), "s");
  set_coverage(r, traced, walls, 0.20);
  r.set("trace.overhead_s", observed.wall_s - wall, "s");
  spans.print_summary();
  return r;
}

}  // namespace perfbench
