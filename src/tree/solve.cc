#include "tree/solve.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/timer.h"
#include "exec/batch_engine.h"
#include "gpusim/timing.h"
#include "tree/cost.h"

namespace ksum::tree {

std::string to_string(TreeMode mode) {
  return mode == TreeMode::kForce ? "force" : "auto";
}

std::string TreeReport::to_string() const {
  std::ostringstream os;
  os << "tree eps=" << eps;
  if (!used_tree) {
    os << " dense fallback (" << fallback_reason << ")";
    return os.str();
  }
  os << " rows=" << row_clusters << " boxes=" << boxes << " near=" << near_pairs
     << " far0=" << far_pairs_order0 << " far1=" << far_pairs_order1
     << " bound=" << bound_total << " near_s=" << near_seconds
     << " far_s=" << far_seconds << " build_s=" << build_seconds;
  return os.str();
}

void validate_options(const pipelines::RunOptions& options,
                      const core::KernelParams& params,
                      pipelines::Backend backend) {
  const TreeSpec& tree = options.tree;
  KSUM_REQUIRE(tree.eps >= 0, "tree eps must be non-negative");
  if (tree.eps == 0) return;
  KSUM_REQUIRE(backend == pipelines::Backend::kSimFused,
               "the treecode runs on the sim-fused backend only");
  KSUM_REQUIRE(params.type == core::KernelType::kGaussian,
               "the treecode far-field bound covers the Gaussian kernel only");
  KSUM_REQUIRE(options.fault_injector == nullptr,
               "the treecode does not compose with fault injection");
  KSUM_REQUIRE(!(options.shards.enabled() &&
                 options.shards.injector_factory != nullptr),
               "the treecode does not compose with per-shard fault injection");
  KSUM_REQUIRE(options.capture_staged_partials == nullptr,
               "the treecode cannot capture staged partials");
  KSUM_REQUIRE(tree.mode != TreeMode::kAuto || tree.cost_model != nullptr,
               "tree mode auto needs a dense cost model "
               "(analytic/dense_cost.h)");
}

TreeDecision decide(const workload::Instance& instance,
                    const core::KernelParams& params,
                    const pipelines::RunOptions& options) {
  Timer timer;
  TreeDecision decision;
  if (options.shards.enabled() &&
      options.shards.axis == shard::ShardAxis::kN) {
    decision.fallback_reason =
        "n-axis sharding replays the staged-partial merge; the tree splits "
        "rows only";
    return decision;
  }
  TreePlan plan = build_plan(instance, params, options.tree);
  decision.build_seconds = timer.seconds();
  if (!plan.has_far_pair()) {
    decision.fallback_reason = "no far-field pair at this eps and shape";
    return decision;
  }
  if (options.tree.mode == TreeMode::kAuto) {
    const DenseCostModel& dense = *options.tree.cost_model;
    const double dense_seconds =
        dense.dense_seconds(instance.spec.m, instance.spec.n, instance.spec.k);
    const double tree_seconds =
        tree_seconds_estimate(plan, instance.spec.k, dense, options.device);
    if (!(tree_seconds < dense_seconds)) {
      std::ostringstream os;
      os << "cost model picked dense (" << dense_seconds << "s vs "
         << tree_seconds << "s tree)";
      decision.fallback_reason = os.str();
      return decision;
    }
  }
  decision.use_tree = true;
  decision.plan.emplace(std::move(plan));
  return decision;
}

namespace {

struct LeafResult {
  Vector near;              // rows(cluster); zeros when no near column
  std::vector<double> far;  // rows(cluster)
  std::optional<pipelines::PipelineReport> report;
  robust::RecoveryReport recovery;  // attempts 0 when no near run happened
};

LeafResult run_leaf(const workload::Instance& instance,
                    const core::KernelParams& params,
                    const pipelines::RunOptions& sub_options,
                    const TreePlan& plan, std::size_t leaf) {
  if (sub_options.cancel != nullptr) sub_options.cancel->check();
  const RowCluster& cluster = plan.rows[leaf];
  const std::size_t rows = cluster.range.size();
  const std::size_t k = instance.spec.k;
  LeafResult result;
  result.recovery.attempts = 0;
  result.far.assign(rows, 0.0);

  // --- Near field: gather the near boxes' points (canonical order, boxes
  // in ascending index order) into a packed fused sub-problem.
  std::size_t near_cols = 0;
  for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
    if (plan.at(leaf, bx) == PairKind::kNear) {
      near_cols += plan.boxes[bx].range.size();
    }
  }
  if (near_cols > 0) {
    workload::Instance sub;
    sub.spec = instance.spec;
    sub.spec.m = rows;
    sub.spec.n = near_cols;
    sub.a = Matrix(rows, k, Layout::kRowMajor);
    sub.b = Matrix(k, near_cols, Layout::kColMajor);
    sub.w = Vector(near_cols);
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t r = plan.row_part.order[cluster.range.begin + i];
      for (std::size_t d = 0; d < k; ++d) sub.a.at(i, d) = instance.a.at(r, d);
    }
    std::size_t col = 0;
    for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
      if (plan.at(leaf, bx) != PairKind::kNear) continue;
      const LeafRange& range = plan.boxes[bx].range;
      for (std::size_t i = range.begin; i < range.end; ++i) {
        const std::size_t j = plan.column_part.order[i];
        for (std::size_t d = 0; d < k; ++d) sub.b.at(d, col) = instance.b.at(d, j);
        sub.w[col] = instance.w[j];
        ++col;
      }
    }
    pipelines::SolveResult sub_result = pipelines::solve(
        sub, params, pipelines::Backend::kSimFused, sub_options);
    result.near = std::move(sub_result.v);
    result.report = std::move(sub_result.report);
    result.recovery = sub_result.recovery;
  } else {
    result.near = Vector(rows);
  }

  // --- Far field: truncated series per row, double accumulation in
  // ascending box order (the determinism contract).
  const double h = static_cast<double>(params.bandwidth);
  const double h2 = h * h;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t r = plan.row_part.order[cluster.range.begin + i];
    double acc = 0;
    for (std::size_t bx = 0; bx < plan.boxes.size(); ++bx) {
      const PairKind kind = plan.at(leaf, bx);
      if (kind == PairKind::kNear) continue;
      const BoxSummary& box = plan.boxes[bx];
      double dist2 = 0;
      for (std::size_t d = 0; d < k; ++d) {
        const double delta =
            static_cast<double>(instance.a.at(r, d)) - box.center[d];
        dist2 += delta * delta;
      }
      const double g = std::exp(-dist2 / (2 * h2));
      double term = g * box.weight_sum;
      if (kind == PairKind::kFarOrder1) {
        double dot = 0;
        for (std::size_t d = 0; d < k; ++d) {
          dot += (static_cast<double>(instance.a.at(r, d)) - box.center[d]) *
                 box.moment[d];
        }
        term += g * dot / h2;
      }
      acc += term;
    }
    result.far[i] = acc;
  }
  return result;
}

}  // namespace

pipelines::SolveResult evaluate(const workload::Instance& instance,
                                const core::KernelParams& params,
                                const pipelines::RunOptions& options,
                                TreePlan plan, double build_seconds) {
  // Sub-runs are plain dense fused solves: no tree recursion, no sharding,
  // and the per-run machinery (warm device, staged capture) stays off. The
  // geometry resolver already ran for the full shape in pipelines::solve,
  // so sub-problems keep that geometry instead of re-resolving per block.
  pipelines::RunOptions sub_options = options;
  sub_options.tree = TreeSpec{};
  sub_options.shards = shard::ShardSpec{};
  sub_options.fault_injector = nullptr;
  sub_options.geometry_resolver = nullptr;
  sub_options.warm_device = nullptr;
  sub_options.capture_staged_partials = nullptr;

  const std::size_t leaves = plan.rows.size();
  int threads = 1;
  std::optional<shard::ShardReport> shard_report;
  if (options.shards.enabled()) {
    // Shard composition: contiguous row-cluster groups. Every cluster's
    // result is independent of the grouping, so any count/worker choice
    // produces identical bytes; the groups only shape the report and the
    // parallel fan-out.
    const std::size_t requested =
        options.shards.count == 0 ? 1 : options.shards.count;
    const std::size_t groups = std::min(requested, leaves);
    shard::ShardReport report;
    report.axis = shard::ShardAxis::kM;
    report.workers = options.shards.workers == 0
                         ? static_cast<int>(groups)
                         : options.shards.workers;
    report.workers = std::min<int>(report.workers, static_cast<int>(groups));
    for (std::size_t g = 0; g < groups; ++g) {
      shard::ShardSliceReport slice;
      slice.index = g;
      // Row clusters gather non-contiguous rows, so slices carry
      // row-cluster index ranges, not element ranges (docs/TREECODE.md).
      slice.begin = g * leaves / groups;
      slice.end = (g + 1) * leaves / groups;
      slice.recovery.attempts = 0;
      report.slices.push_back(slice);
    }
    threads = std::max(report.workers, 1);
    shard_report = std::move(report);
  }

  std::vector<LeafResult> results = exec::map_ordered(
      threads, leaves, [&](std::size_t leaf) {
        return run_leaf(instance, params, sub_options, plan, leaf);
      });

  pipelines::SolveResult out;
  out.v = Vector(instance.spec.m);
  out.recovery.attempts = 0;

  pipelines::PipelineReport agg;
  agg.solution = pipelines::Solution::kFused;
  agg.m = instance.spec.m;
  agg.n = instance.spec.n;
  agg.k = instance.spec.k;

  TreeReport tree_report;
  tree_report.eps = options.tree.eps;
  tree_report.used_tree = true;
  tree_report.row_clusters = plan.rows.size();
  tree_report.boxes = plan.boxes.size();
  tree_report.near_pairs = plan.near_pairs;
  tree_report.far_pairs_order0 = plan.far0_pairs;
  tree_report.far_pairs_order1 = plan.far1_pairs;
  tree_report.near_interactions = plan.near_interactions;
  tree_report.bound_total = plan.bound_total;
  tree_report.build_seconds = build_seconds;

  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    const LeafResult& result = results[leaf];
    const RowCluster& cluster = plan.rows[leaf];
    for (std::size_t i = 0; i < cluster.range.size(); ++i) {
      const std::size_t r = plan.row_part.order[cluster.range.begin + i];
      out.v[r] = static_cast<float>(static_cast<double>(result.near[i]) +
                                    result.far[i]);
    }
    out.recovery.attempts += result.recovery.attempts;
    out.recovery.faults_detected += result.recovery.faults_detected;
    out.recovery.fallback_used |= result.recovery.fallback_used;
    out.recovery.gave_up |= result.recovery.gave_up;
    if (result.report.has_value()) {
      const pipelines::PipelineReport& sub = *result.report;
      agg.total += sub.total;
      agg.seconds += sub.seconds;
      agg.useful_flops += sub.useful_flops;
      agg.energy += sub.energy;
      agg.robustness.checks_enabled |= sub.robustness.checks_enabled;
      for (const auto& check : sub.robustness.checks) {
        agg.robustness.checks.push_back(check);
      }
      tree_report.near_seconds += sub.seconds;
    }
    if (shard_report.has_value()) {
      for (auto& slice : shard_report->slices) {
        if (leaf >= slice.begin && leaf < slice.end) {
          slice.recovery.attempts += result.recovery.attempts;
          slice.recovery.faults_detected += result.recovery.faults_detected;
          slice.recovery.fallback_used |= result.recovery.fallback_used;
          slice.recovery.gave_up |= result.recovery.gave_up;
        }
      }
    }
  }

  tree_report.far_seconds = far_field_seconds(plan, options.device);
  agg.seconds += tree_report.far_seconds;
  agg.useful_flops += far_field_flops(plan);
  agg.flop_efficiency = gpusim::flop_efficiency(options.device,
                                                agg.useful_flops, agg.seconds);
  agg.result = out.v;

  out.report = std::move(agg);
  out.shards = std::move(shard_report);
  out.tree = std::move(tree_report);
  return out;
}

}  // namespace ksum::tree
