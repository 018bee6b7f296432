// Shard-scaling study for the multi-device runner (docs/SHARDING.md).
//
// One fixed 1024×1024×16 Gaussian problem solved with the fused pipeline,
// unsharded and then split over {2, 4, 8} warm devices along each axis:
//
//   axis m — rows of A (and V) are partitioned; shards are independent and
//            the merge is pure concatenation.
//   axis n — columns of B (and W) are partitioned; each shard produces
//            staged partials and the merge replays the device's reduction
//            fold, so the sum order is exactly the single-device order.
//
// For every configuration the merged result must be bit-identical to the
// unsharded oracle (memcmp, not a tolerance) — a divergence fails the
// bench. The table reports the modelled wall time (max over shards, since
// each shard owns a device), total energy and memory traffic, showing the
// near-linear time scaling and the flat-to-rising energy cost that makes
// sharding a latency lever, not an efficiency one.
//
// Environment: KSUM_BENCH_THREADS caps the worker pool (default: hardware
// concurrency; results are bit-identical for any value), KSUM_CSV_DIR
// mirrors the table, KSUM_BENCH_JSON_DIR receives BENCH_shard_scaling.json
// (schema ksum-bench-v1, one point whose pipelines are the sharding
// configurations: "unsharded", "m_shards2", ..., "n_shards8").
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/string_util.h"
#include "core/kernels.h"
#include "exec/batch_engine.h"
#include "pipelines/solver.h"
#include "profile/profile_json.h"
#include "shard/types.h"
#include "workload/point_generators.h"

namespace {

using namespace ksum;

constexpr std::size_t kM = 1024, kN = 1024, kK = 16;

struct ConfigResult {
  std::string name;  // pipelines key in the bench record
  std::string axis;  // "-", "m" or "n"
  std::size_t shards = 1;
  pipelines::SolveResult run;
  bool bit_identical = true;
};

}  // namespace

int main() {
  workload::ProblemSpec spec;
  spec.m = kM;
  spec.n = kN;
  spec.k = kK;
  spec.seed = 7;
  const auto instance = workload::make_instance(spec);
  core::KernelParams params;  // gaussian, h=1

  // The single-device oracle every sharded run must reproduce bit for bit.
  // Kept outside `configs` so the comparisons below never reference into a
  // vector that push_back may reallocate.
  const pipelines::SolveResult baseline =
      pipelines::solve(instance, params, pipelines::Backend::kSimFused);
  const Vector& oracle = baseline.v;

  std::vector<ConfigResult> configs;
  {
    ConfigResult base;
    base.name = "unsharded";
    base.axis = "-";
    base.run = baseline;
    configs.push_back(std::move(base));
  }

  const std::vector<std::size_t> counts = {2, 4, 8};
  for (const shard::ShardAxis axis :
       {shard::ShardAxis::kM, shard::ShardAxis::kN}) {
    for (const std::size_t count : counts) {
      pipelines::RunOptions options;
      options.shards.count = count;
      options.shards.axis = axis;
      options.shards.workers = exec::env_threads("KSUM_BENCH_THREADS");
      ConfigResult cfg;
      cfg.axis = shard::to_string(axis);
      cfg.name = cfg.axis + "_shards" + std::to_string(count);
      cfg.run = pipelines::solve(instance, params,
                                 pipelines::Backend::kSimFused, options);
      cfg.shards = cfg.run.shards.has_value() ? cfg.run.shards->count()
                                              : std::size_t{0};
      cfg.bit_identical =
          cfg.run.v.size() == oracle.size() &&
          std::memcmp(cfg.run.v.data(), oracle.data(),
                      oracle.size() * sizeof(float)) == 0;
      configs.push_back(std::move(cfg));
    }
  }

  const double base_seconds = configs.front().run.report->seconds;
  Table table(str_format(
      "Shard scaling — fused pipeline, M=%zu N=%zu K=%zu (time is the max "
      "over shards; each shard owns a device)",
      kM, kN, kK));
  table.header({"axis", "shards", "time (ms)", "speedup", "energy (J)",
                "DRAM txn", "L2 txn", "merge"});
  bool all_identical = true;
  for (const ConfigResult& cfg : configs) {
    const pipelines::PipelineReport& rep = *cfg.run.report;
    all_identical = all_identical && cfg.bit_identical;
    table.row({cfg.axis, str_format("%zu", cfg.shards),
               str_format("%.3f", rep.seconds * 1e3),
               str_format("%.2fx", base_seconds / rep.seconds),
               str_format("%.4f", rep.energy.total()),
               str_format("%llu", static_cast<unsigned long long>(
                                      rep.total.dram_total_transactions())),
               str_format("%llu", static_cast<unsigned long long>(
                                      rep.total.l2_total_transactions())),
               cfg.bit_identical ? "bit-identical" : "DIVERGED"});
  }
  bench::emit(table, "shard_scaling");

  // One ksum-bench-v1 point: the sharding configurations play the role of
  // pipelines, so tools/bench_compare.py gates their time/energy/traffic.
  profile::Json pipelines_json = profile::Json::object();
  for (const ConfigResult& cfg : configs) {
    const pipelines::PipelineReport& rep = *cfg.run.report;
    profile::Json pipe = profile::Json::object();
    pipe.set("seconds", rep.seconds);
    pipe.set("energy_j", profile::energy_breakdown_json(rep.energy));
    pipe.set("l2_transactions", rep.total.l2_total_transactions());
    pipe.set("dram_transactions", rep.total.dram_total_transactions());
    pipelines_json.set(cfg.name, std::move(pipe));
  }
  profile::Json point = profile::Json::object();
  point.set("m", static_cast<std::uint64_t>(kM));
  point.set("n", static_cast<std::uint64_t>(kN));
  point.set("k", static_cast<std::uint64_t>(kK));
  point.set("pipelines", std::move(pipelines_json));
  const std::string path = bench::write_bench_json_points(
      "shard_scaling", profile::Json::array().push_back(std::move(point)));

  std::printf("shard scaling: %s (7 configurations vs the unsharded "
              "oracle)\nwrote %s\n",
              all_identical ? "PASS" : "FAIL", path.c_str());
  return all_identical ? 0 : 1;
}
