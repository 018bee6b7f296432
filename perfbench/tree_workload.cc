// tree_clustered: pipelines::solve with the treecode forced on
// (tree.eps = 1e-4, TreeMode::kForce) over 16 tight blobs, M=2048,
// N=131072, K=2, h=0.01, single thread, closed loop. The only workload that
// runs tree::decide (partition and plan) and the far-field series; its near
// field is many small padded fused sub-solves, each paying the per-call
// pipeline setup (device construction, workspace, upload).
#include <cmath>
#include <map>
#include <optional>

#include "common/error.h"
#include "core/exact.h"
#include "pipelines/solver.h"
#include "trace.h"
#include "tree/plan.h"
#include "tree/solve.h"
#include "workload/point_generators.h"

namespace perfbench {
namespace {

constexpr std::size_t kM = 2048, kN = 131072, kK = 2, kBlobs = 16;
constexpr double kEps = 1e-4;
constexpr float kBandwidth = 0.01f;

/// Deterministic uniform in [0, 1): point i of `stream` (splitmix64).
float unit_hash(std::uint64_t stream, std::uint64_t i) {
  std::uint64_t x = stream * 0x9e3779b97f4a7c15ULL + i + 1;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<float>(x >> 40) / static_cast<float>(1ULL << 24);
}

/// The tree_scaling bench's generator: sources and queries drawn
/// round-robin from 16 blobs of side 0.02 around its fixed centers in
/// [0.1, 0.9]². The seed moves every point inside its blob and draws the
/// weights (make_instance); the centers stay put, so every seed gets a plan
/// of about the same size.
workload::Instance make_clustered(std::uint64_t seed) {
  workload::ProblemSpec spec;
  spec.m = kM;
  spec.n = kN;
  spec.k = kK;
  spec.bandwidth = kBandwidth;
  spec.seed = seed;
  workload::Instance instance = workload::make_instance(spec);
  float centers[kBlobs][kK];
  for (std::size_t c = 0; c < kBlobs; ++c) {
    for (std::size_t d = 0; d < kK; ++d) {
      centers[c][d] = 0.1f + 0.8f * unit_hash(c * kK + d, 0);
    }
  }
  const std::uint64_t base = (seed + 1) << 20;
  for (std::size_t j = 0; j < kN; ++j) {
    for (std::size_t d = 0; d < kK; ++d) {
      instance.b.at(d, j) = centers[j % kBlobs][d] +
                            0.02f * (unit_hash(base + 100 + d, j) - 0.5f);
    }
  }
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t d = 0; d < kK; ++d) {
      instance.a.at(i, d) = centers[i % kBlobs][d] +
                            0.02f * (unit_hash(base + 200 + d, i) - 0.5f);
    }
  }
  return instance;
}

pipelines::RunOptions tree_options() {
  pipelines::RunOptions options;
  options.tree.eps = kEps;
  options.tree.mode = tree::TreeMode::kForce;
  options.tree.box_leaf = 256;
  options.tree.row_leaf = 128;
  return options;
}

/// The near-field sub-problem of row cluster `leaf`: its rows against the
/// points of every near box, gathered in canonical order exactly as the
/// treecode does before its fused sub-solve. Empty (n == 0) when the
/// cluster has no near box.
workload::Instance near_block(const workload::Instance& instance,
                              const tree::TreePlan& plan, std::size_t leaf) {
  const tree::RowCluster& cluster = plan.rows[leaf];
  const std::size_t rows = cluster.range.size();
  std::size_t cols = 0;
  for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
    if (plan.at(leaf, bx) == tree::PairKind::kNear) {
      cols += plan.boxes[bx].range.size();
    }
  }
  workload::Instance sub;
  sub.spec = instance.spec;
  sub.spec.m = rows;
  sub.spec.n = cols;
  if (cols == 0) return sub;
  sub.a = Matrix(rows, kK, Layout::kRowMajor);
  sub.b = Matrix(kK, cols, Layout::kColMajor);
  sub.w = Vector(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t r = plan.row_part.order[cluster.range.begin + i];
    for (std::size_t d = 0; d < kK; ++d) sub.a.at(i, d) = instance.a.at(r, d);
  }
  std::size_t col = 0;
  for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
    if (plan.at(leaf, bx) != tree::PairKind::kNear) continue;
    const tree::LeafRange& range = plan.boxes[bx].range;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const std::size_t j = plan.column_part.order[i];
      for (std::size_t d = 0; d < kK; ++d) sub.b.at(d, col) = instance.b.at(d, j);
      sub.w[col] = instance.w[j];
      ++col;
    }
  }
  return sub;
}

/// One solve made of the tree layer's two calls, each in a span.
struct TracedTree {
  double decide_s = 0;
  double evaluate_s = 0;
  pipelines::SolveResult result;
  std::optional<tree::TreePlan> plan;  // kept when asked, for the near field
};

TracedTree traced_tree(SpanRecorder& spans, const workload::Instance& instance,
                       const core::KernelParams& params,
                       const pipelines::RunOptions& options, bool keep_plan) {
  TracedTree out;
  const int decide = spans.begin("tree.decide");
  tree::TreeDecision decision = tree::decide(instance, params, options);
  spans.end(decide);
  out.decide_s = spans.spans()[static_cast<std::size_t>(decide)].seconds();
  KSUM_REQUIRE(decision.use_tree,
               "tree::decide fell back dense: " + decision.fallback_reason);
  if (keep_plan) out.plan = *decision.plan;
  const int evaluate = spans.begin("tree.evaluate");
  out.result = tree::evaluate(instance, params, options,
                              std::move(*decision.plan),
                              decision.build_seconds);
  spans.end(evaluate);
  out.evaluate_s = spans.spans()[static_cast<std::size_t>(evaluate)].seconds();
  return out;
}

}  // namespace

Result run_tree(const Args& args) {
  Result r;
  std::vector<double> setup;
  workload::Instance instance;
  for (int rep = 0; rep < 11; ++rep) {
    const Clock::time_point start = Clock::now();
    workload::Instance made = make_clustered(args.seed);
    setup.push_back(seconds_since(start));
    instance = std::move(made);
  }
  const core::KernelParams params = core::params_from_spec(instance.spec);
  const pipelines::RunOptions options = tree_options();

  // The traced run follows every untraced solve with the same solve made of
  // its two tree-layer calls, each in a span, so each pair is measured at
  // the same host speed.
  std::vector<double> walls;
  std::vector<pipelines::SolveResult> results;
  SpanRecorder spans;
  std::vector<TracedTree> traced_runs;
  const Clock::time_point loop_start = Clock::now();
  while (walls.size() < 2 || seconds_since(loop_start) < args.seconds) {
    const Clock::time_point start = Clock::now();
    results.push_back(pipelines::solve(
        instance, params, pipelines::Backend::kSimFused, options));
    walls.push_back(seconds_since(start));
    if (args.trace) {
      traced_runs.push_back(traced_tree(spans, instance, params, options,
                                        traced_runs.empty()));
    }
  }
  const double loop_seconds = seconds_since(loop_start);
  const double wall = median(walls);

  // ε bounds the series truncation; float round-off rides on top, bounded
  // by the dense agreement tolerance per entry (docs/TREECODE.md).
  const pipelines::SolveResult oracle =
      pipelines::solve(instance, params, pipelines::Backend::kCpuDirect);
  double err = 0, allowed = 0;
  const pipelines::SolveResult& first = results.front();
  for (std::size_t i = 0; i < kM; ++i) {
    const double o = static_cast<double>(oracle.v[i]);
    err = std::max(err, std::abs(static_cast<double>(first.v[i]) - o));
    allowed = std::max(allowed, kEps + 5e-3 * std::max(0.01, std::abs(o)));
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const pipelines::SolveResult& res = results[i];
    const bool ok = res.tree.has_value() && res.tree->used_tree &&
                    res.report.has_value() && err <= allowed &&
                    same_bits(res.v, first.v) &&
                    same_model(*res.report, *first.report);
    r.check(ok, "tree solve " + std::to_string(i) + " (max |err| " +
                    std::to_string(err) + ", allowed " +
                    std::to_string(allowed) + ")");
  }
  const pipelines::PipelineReport& report = *first.report;
  const tree::TreeReport& tree_report = *first.tree;

  if (!args.trace) {
    r.set("setup_s", median(setup), "s");
    r.set("op_wall_p50_ms", wall * 1e3, "ms");
    r.set("ops_per_s", double(walls.size()) / loop_seconds, "1/s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    note("tree_clustered: %zu solves, median %.4f s, min %.4f s, max |err| "
         "%.3e <= %.3e, %s",
         walls.size(), wall, percentile(walls, 0), err, allowed,
         tree_report.to_string().c_str());
    return r;
  }

  // --- traced run ---------------------------------------------------------------
  std::vector<double> decide_s, evaluate_s, traced_s;
  for (const TracedTree& traced : traced_runs) {
    r.check(traced.result.report.has_value() &&
                same_bits(traced.result.v, first.v) &&
                same_model(*traced.result.report, report),
            "traced tree::decide + tree::evaluate differ from "
            "pipelines::solve");
    decide_s.push_back(traced.decide_s);
    evaluate_s.push_back(traced.evaluate_s);
    traced_s.push_back(traced.decide_s + traced.evaluate_s);
  }
  if (!traced_runs.front().plan.has_value()) return r;
  const tree::TreePlan& plan = *traced_runs.front().plan;

  // The near field, replayed block by block through pipelines::solve and
  // the traced replica.
  std::vector<int> replicas;
  std::map<std::string, double> modelled;
  double near_solve_s = 0;
  std::size_t near_solves = 0;
  PhaseObserver observer;
  gpusim::Counters observed_counters;
  for (std::size_t leaf = 0; leaf < plan.rows.size(); ++leaf) {
    const workload::Instance sub = near_block(instance, plan, leaf);
    if (sub.spec.n == 0) continue;
    ++near_solves;
    const Clock::time_point start = Clock::now();
    const pipelines::SolveResult solved =
        pipelines::solve(sub, params, pipelines::Backend::kSimFused);
    near_solve_s += seconds_since(start);
    add_modelled(modelled, *solved.report);
    const ReplicaRun replica = run_replica(
        spans, pipelines::Solution::kFused, sub, params, false, nullptr,
        nullptr);
    replicas.push_back(replica.span);
    r.check(same_bits(replica.v, solved.v) &&
                replica.counters == solved.report->total,
            "near block " + std::to_string(leaf) +
                ": traced replica differs from pipelines::solve");
    if (near_solves == 1) {
      // One observed block for the phase times and the CTA capture.
      const ReplicaRun watched = run_replica(
          spans, pipelines::Solution::kFused, sub, params, false, nullptr,
          &observer);
      r.check(same_bits(watched.v, solved.v) &&
                  watched.counters == solved.report->total,
              "observed near block differs from pipelines::solve");
      observed_counters = watched.counters;
    }
  }

  set_model_metrics(r, report.seconds, report.energy.total());
  set_gpusim_counts(r, report.total, wall);
  set_replay_metrics(r, observer, observed_counters, 0.2);
  const std::map<std::string, double> near = child_totals(spans, replicas);
  set_kernel_metrics(r, {near}, modelled, &observer);
  double near_children = 0;
  for (const int id : replicas) near_children += spans.children(id);
  r.set("pipelines.self_s", near_solve_s - near_children, "s");
  r.set("workload.make_instance_s", median(setup), "s");
  r.set("tree.decide_s", median(decide_s), "s");
  r.set("tree.evaluate_s", median(evaluate_s), "s");
  r.set("tree.near_solves", double(near_solves), "count");
  r.set("tree.near_fraction", tree_report.near_fraction(kM, kN), "ratio");
  r.set("tree.far_pairs",
        double(tree_report.far_pairs_order0 + tree_report.far_pairs_order1),
        "count");
  r.set("tree.near_modelled_s", tree_report.near_seconds, "sim_s");
  r.set("tree.far_modelled_s", tree_report.far_seconds, "sim_s");
  set_coverage(r, traced_s, walls, 0.20);
  r.set("trace.overhead_s", median(traced_s) - wall, "s");
  spans.print_summary();
  return r;
}

}  // namespace perfbench
