#include "analytic/dense_cost.h"

#include "workload/padding.h"

namespace ksum::analytic {

double DenseCost::dense_seconds(std::size_t m, std::size_t n,
                                std::size_t k) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_
      .estimate(pipelines::Solution::kFused, workload::round_up(m, 128),
                workload::round_up(n, 128), workload::round_up(k, 8))
      .seconds;
}

}  // namespace ksum::analytic
