// The treecode's dense price: tree::DenseCostModel backed by the analytic
// pipeline model — the same numbers `ksum-cli sweep` and the bench binaries
// report — so TreeMode::kAuto's dense-vs-tree decision and the near-field
// blocks it compares against are priced by one model of the kernels that
// actually run. The treecode takes it through the tree::DenseCostModel
// interface because src/analytic links the pipelines (the dependency cannot
// point the other way).
//
// dense_seconds prices the shape pipelines::solve runs: M and N rounded up
// to 128, K to 8 (workload/padding.h). A non-paper tile geometry is priced
// at the paper tiling.
#pragma once

#include <mutex>

#include "analytic/pipeline_model.h"
#include "tree/types.h"

namespace ksum::analytic {

class DenseCost : public tree::DenseCostModel {
 public:
  explicit DenseCost(const pipelines::RunOptions& options) : model_(options) {}

  /// Modelled seconds of the fused pipeline on the zero-padded shape.
  /// Thread-safe: batch workers share one adapter.
  double dense_seconds(std::size_t m, std::size_t n,
                       std::size_t k) const override;

 private:
  mutable std::mutex mutex_;
  mutable PipelineModel model_;
};

}  // namespace ksum::analytic
