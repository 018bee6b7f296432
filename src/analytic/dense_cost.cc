#include "analytic/dense_cost.h"

namespace ksum::analytic {

double DenseCost::dense_seconds(std::size_t m, std::size_t n,
                                std::size_t k) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_.estimate_solve(pipelines::Solution::kFused, m, n, k).seconds;
}

}  // namespace ksum::analytic
