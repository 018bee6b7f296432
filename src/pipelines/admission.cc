#include "pipelines/admission.h"

#include <string>

#include "common/error.h"
#include "common/math_util.h"
#include "shard/plan.h"

namespace ksum::pipelines {
namespace {

std::size_t padded(std::size_t v, std::size_t align) {
  return checked_mul(v / align + (v % align != 0 ? 1 : 0), align);
}

// Host A (m×k), B (k×n) and W (n), in floats: refused when it overflows.
void check_instance(std::size_t m, std::size_t n, std::size_t k) {
  checked_mul(
      checked_add(checked_add(checked_mul(m, k), checked_mul(k, n)), n), 4);
}

void require_arena(std::size_t bytes, const RunOptions& options,
                   const std::string& what, const char* hint) {
  if (bytes <= options.device.shard_arena_bytes) return;
  throw Error("ksum: " + what + " needs a " + std::to_string(bytes) +
              "-byte device arena, over the profile's " +
              std::to_string(options.device.shard_arena_bytes) +
              "-byte per-device arena" + hint);
}

}  // namespace

std::size_t admit(const workload::ProblemSpec& spec, Backend backend,
                  const RunOptions& options) {
  if (!is_simulated(backend)) {
    check_instance(spec.m, spec.n, spec.k);
    return 0;
  }
  const Solution solution = solution_of(backend);
  // The geometry pipelines::solve resolves before it pads or plans.
  RunOptions run = options;
  if (options.geometry_resolver != nullptr) {
    const auto chosen =
        options.geometry_resolver->resolve(spec.m, spec.n, spec.k, solution);
    if (chosen.has_value()) run.mainloop.geometry = *chosen;
  }
  const gpukernels::TileGeometry& geometry = run.mainloop.geometry;
  const auto align = gpukernels::solve_alignment(geometry);
  const std::size_t m = padded(spec.m, align.m);
  const std::size_t n = padded(spec.n, align.n);
  const std::size_t k = padded(spec.k, align.k);
  check_instance(m, n, k);

  if (options.shards.enabled()) {
    // Each shard builds its own device; the plan sizes the largest.
    const shard::ShardPlan plan =
        shard::plan_shards(spec.m, spec.n, spec.k, run, solution);
    require_arena(plan.arena_bytes, options,
                  "each of the " + std::to_string(plan.count()) + " shards",
                  "; --shards=auto fits the shard count to it");
    return plan.arena_bytes;
  }
  const bool fallback = solution == Solution::kFused &&
                        options.recovery.enabled &&
                        options.recovery.fallback_to_unfused;
  const std::size_t arena = required_device_bytes(
      m, n, k, solution != Solution::kFused || fallback,
      static_cast<std::size_t>(geometry.tile_n));
  require_arena(
      arena, options,
      "the " + to_string(backend) + " solve of " + spec.to_string(),
      "; --shards=auto splits M or N into shards that fit (K never shards)");
  return arena;
}

void admit_knn(const workload::ProblemSpec& spec, KnnSolution solution,
               std::size_t k_nn, const RunOptions& options) {
  // The arena holds the instance too, so it overflows first.
  require_arena(knn_device_bytes(spec.m, spec.n, spec.k, k_nn,
                                 solution == KnnSolution::kUnfused),
                options, "the " + to_string(solution) + " search", "");
}

}  // namespace ksum::pipelines
