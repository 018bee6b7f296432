#include "pipelines/admission.h"

#include <unistd.h>

#include <limits>
#include <string>

#include "common/error.h"
#include "common/math_util.h"
#include "shard/plan.h"

namespace ksum::pipelines {
namespace {

std::size_t padded(std::size_t v, std::size_t align) {
  return checked_mul(v / align + (v % align != 0 ? 1 : 0), align);
}

// Host A (m×k), B (k×n) and W (n) in bytes: refused when it overflows.
std::size_t instance_bytes(std::size_t m, std::size_t n, std::size_t k) {
  return checked_mul(
      checked_add(checked_add(checked_mul(m, k), checked_mul(k, n)), n), 4);
}

// An (m, n, k) instance plus the zero-padded copy pipelines::solve makes of
// it when the shape is ragged.
std::size_t held_bytes(std::size_t m, std::size_t n, std::size_t k,
                       const gpukernels::SolveAlignment& align) {
  const std::size_t pm = padded(m, align.m);
  const std::size_t pn = padded(n, align.n);
  const std::size_t pk = padded(k, align.k);
  const std::size_t bytes = instance_bytes(m, n, k);
  if (pm == m && pn == n && pk == k) return bytes;
  return checked_add(bytes, instance_bytes(pm, pn, pk));
}

// The machine's physical memory, read once.
std::size_t physical_memory_bytes() {
  static const std::size_t bytes = [] {
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long page = sysconf(_SC_PAGE_SIZE);
    // A system that cannot tell sets no host limit.
    if (pages <= 0 || page <= 0) {
      return std::numeric_limits<std::size_t>::max();
    }
    return static_cast<std::size_t>(pages) * static_cast<std::size_t>(page);
  }();
  return bytes;
}

void require_host(std::size_t bytes, const std::string& what) {
  const std::size_t physical = physical_memory_bytes();
  if (bytes <= physical) return;
  throw Error("ksum: " + what + " holds " + std::to_string(bytes) +
              " bytes of host memory, over the machine's " +
              std::to_string(physical) + "-byte physical memory");
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
  const std::string what = "the " + to_string(backend) + " solve of " +
                           spec.to_string();
  const std::size_t instance = instance_bytes(spec.m, spec.n, spec.k);
  if (!is_simulated(backend)) {
    require_host(instance, what);
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
  instance_bytes(m, n, k);  // refused when the padded shape overflows

  if (options.shards.enabled()) {
    // The plan holds one range per shard, so an instance the machine
    // cannot hold is refused before planning.
    require_host(instance, what);
    // Each shard builds its own device; the plan sizes the largest.
    const shard::ShardPlan plan =
        shard::plan_shards(spec.m, spec.n, spec.k, run, solution);
    require_arena(plan.arena_bytes, options,
                  "each of the " + std::to_string(plan.count()) + " shards",
                  "; --shards=auto fits the shard count to it");
    // Each worker holds one shard at a time: its slice of the instance
    // (padded when ragged) and its device. The first range is the largest.
    const std::size_t rows =
        plan.axis == shard::ShardAxis::kM ? plan.ranges.front().size()
                                          : spec.m;
    const std::size_t cols =
        plan.axis == shard::ShardAxis::kN ? plan.ranges.front().size()
                                          : spec.n;
    const std::size_t per_worker =
        checked_add(held_bytes(rows, cols, spec.k, align), plan.arena_bytes);
    const auto workers = static_cast<std::size_t>(
        shard::worker_count(options.shards, plan.count()));
    require_host(checked_add(instance, checked_mul(workers, per_worker)),
                 what + " on " + std::to_string(workers) + " shard workers");
    return plan.arena_bytes;
  }
  const bool fallback = solution == Solution::kFused &&
                        options.recovery.enabled &&
                        options.recovery.fallback_to_unfused;
  const std::size_t arena = required_device_bytes(
      m, n, k, solution != Solution::kFused || fallback,
      static_cast<std::size_t>(geometry.tile_n));
  require_arena(
      arena, options, what,
      "; --shards=auto splits M or N into shards that fit (K never shards)");
  require_host(checked_add(held_bytes(spec.m, spec.n, spec.k, align), arena),
               what);
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
