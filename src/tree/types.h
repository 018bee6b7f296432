// Shared vocabulary of the treecode layer (docs/TREECODE.md).
//
// The treecode breaks the dense O(M·N) wall of every existing pipeline:
// the N weighted points (columns of B — the paper calls them sources, the
// repo's matrix naming calls them targets; exact.h documents the swap) are
// clustered into fixed-depth median-split boxes, the M output rows are
// grouped into spatially tight row clusters, and every (row cluster, box)
// pair is classified near or far against an analytic Gaussian truncation
// bound. Far pairs are evaluated with a truncated Gauss-transform series
// (order 0 = monopole, order 1 = dipole); near pairs are gathered into
// packed sub-problems and routed through the existing fused tile kernel
// unchanged. The user-facing knob is an ∞-norm error budget ε with a
// guarantee: |V_tree − V_exact|∞ ≤ ε in exact arithmetic, enforced by the
// per-box budget split described in docs/TREECODE.md.
//
// This header is included by pipelines/pipeline.h (RunOptions::tree), so it
// must stay dependency-light: standard library only.
#pragma once

#include <cstddef>
#include <string>

namespace ksum::tree {

/// How the solver decides between the dense pipelines and the treecode
/// when `TreeSpec::eps > 0` and the treecode is applicable.
enum class TreeMode {
  kForce,  // always run the treecode when applicable (default)
  kAuto,   // run whichever the cost model predicts cheaper (tree/cost.h)
};

std::string to_string(TreeMode mode);

/// Estimated dense-pipeline cost consulted by TreeMode::kAuto, for the full
/// problem and every near-field block. Implemented by analytic::DenseCost
/// (analytic/dense_cost.h) — declared here so the treecode can consult it
/// without depending on src/analytic (which itself links the pipelines).
struct DenseCostModel {
  virtual ~DenseCostModel() = default;
  virtual double dense_seconds(std::size_t m, std::size_t n,
                               std::size_t k) const = 0;
};

/// Treecode request carried in pipelines::RunOptions. `eps == 0` (the
/// default) means dense execution; the rest of the fields are ignored.
struct TreeSpec {
  /// ∞-norm truncation budget ε. 0 = treecode off (dense path, untouched
  /// bits); negative values are rejected by the solver. The budget bounds
  /// the *series truncation* error in exact arithmetic — float round-off
  /// rides on top, bounded by the repo-wide dense agreement tolerance
  /// (docs/TREECODE.md, "the ε contract").
  double eps = 0;
  TreeMode mode = TreeMode::kForce;
  /// Box capacity for the weighted-point clustering. Boxes are produced by
  /// balanced median splits, so every leaf box holds between half this and
  /// this many points.
  std::size_t box_leaf = 256;
  /// Row capacity for the output-row clustering; near-field sub-problems
  /// are one row cluster each, padded to the fused kernel's 128-row CTA.
  std::size_t row_leaf = 128;
  /// Hard cap on the split recursion (2^24 leaves is far beyond any
  /// problem the simulator can hold).
  std::size_t max_depth = 24;
  /// Cost model consulted by TreeMode::kAuto, which rejects nullptr. Not
  /// owned; must outlive the call.
  const DenseCostModel* cost_model = nullptr;

  bool enabled() const { return eps != 0; }
};

/// What the treecode did, attached to pipelines::SolveResult::tree.
struct TreeReport {
  double eps = 0;
  /// False when the solver fell back to the dense path (the plan had no
  /// far pair, or TreeMode::kAuto priced the tree out); `fallback_reason`
  /// says why. The dense run is byte-identical to one with eps == 0.
  bool used_tree = false;
  std::string fallback_reason;
  std::size_t row_clusters = 0;
  std::size_t boxes = 0;
  std::size_t near_pairs = 0;
  std::size_t far_pairs_order0 = 0;
  std::size_t far_pairs_order1 = 0;
  /// Σ over near pairs of rows(cluster)·points(box), i.e. the dense
  /// interactions actually evaluated; divide by M·N for the near fraction.
  double near_interactions = 0;
  /// Max over row clusters of Σ_{far boxes} Σ|w|_box · bound_box — the
  /// analytic ∞-norm truncation error actually spent; ≤ eps by construction.
  double bound_total = 0;
  /// Modelled seconds of the near-field fused sub-runs (simulated) and the
  /// far-field series evaluation (roofline, tree/cost.h).
  double near_seconds = 0;
  double far_seconds = 0;
  /// Host wall-clock spent building the partition and plan.
  double build_seconds = 0;

  double near_fraction(std::size_t m, std::size_t n) const {
    const double dense = static_cast<double>(m) * static_cast<double>(n);
    return dense > 0 ? near_interactions / dense : 0.0;
  }
  std::string to_string() const;
};

}  // namespace ksum::tree
