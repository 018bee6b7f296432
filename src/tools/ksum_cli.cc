// ksum-cli — command-line driver for the kernel-summation library.
//
//   ksum-cli solve  --m=2048 --n=1024 --k=32 [--solution=fused] [--verify]
//   ksum-cli solve  --m=4096 --n=1024 --k=32 --shards=4 [--shard-axis=m|n]
//   ksum-cli solve  --batch=requests.csv --threads=8 [--verify] [--robust]
//   ksum-cli knn    --m=1024 --n=1024 --k=16 --neighbors=8 [--unfused]
//   ksum-cli sweep  [--fast]                # every paper table/figure
//   ksum-cli info   [--profile=P]           # the simulated device
//   ksum-cli profile --list | --show=NAME | --validate=FILE
//
// Run any subcommand with --help for its flags.
//
// --profile selects the simulated architecture for solve/knn/info: a
// built-in name (gtx970 | titanx-maxwell | modern) or a path to a
// ksum-device-profile-v1 JSON file. The default is gtx970 — the paper's
// machine — and running with --profile=gtx970 is bit-identical to running
// with no flag at all. `sweep` always models the paper's GTX 970 (it
// reproduces the paper's tables and figures).
//
// Batch mode: --batch=FILE reads one request per CSV line (m,n,k[,seed[,h]];
// '#' comments and a header line allowed), runs them on --threads workers
// (each request on its own simulated device), and prints one summary line
// per request in submission order — the report is byte-identical for any
// --threads value. The remaining solve flags (solution, kernel, robustness,
// layout...) apply to every request in the batch.
//
// Exit codes: 0 success; 1 verification failure or unrecovered fault;
// 2 invalid input or usage (ksum::Error); 3 internal bug (ksum::InternalError).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "analytic/dense_cost.h"
#include "blas/vector_ops.h"
#include "common/flags.h"
#include "common/timer.h"
#include "config/profiles/device_profile.h"
#include "core/knn_exact.h"
#include "exec/thread_pool.h"
#include "pipelines/batch.h"
#include "pipelines/knn_pipeline.h"
#include "pipelines/solver.h"
#include "report/paper_report.h"
#include "report/pipeline_printer.h"
#include "robust/fault_plan.h"
#include "shard/types.h"
#include "tune/tile_search.h"
#include "tune/tuning_cache.h"
#include "workload/weights.h"

namespace {

using namespace ksum;

workload::ProblemSpec spec_from_flags(const FlagParser& flags) {
  workload::ProblemSpec spec;
  spec.m = flags.get_size("m", 2048);
  spec.n = flags.get_size("n", 1024);
  spec.k = flags.get_size("k", 32);
  spec.bandwidth = float(flags.get_double("h", 1.0));
  spec.seed = std::uint64_t(flags.get_int("seed", 42));
  const std::string dist = flags.get_string("dist", "uniform-cube");
  if (dist == "uniform-cube") {
    spec.distribution = workload::Distribution::kUniformCube;
  } else if (dist == "gaussian-mixture") {
    spec.distribution = workload::Distribution::kGaussianMixture;
  } else if (dist == "unit-sphere") {
    spec.distribution = workload::Distribution::kUnitSphere;
  } else if (dist == "grid") {
    spec.distribution = workload::Distribution::kGrid;
  } else {
    throw Error("unknown --dist: " + dist);
  }
  return spec;
}

core::KernelParams params_from_flags(const FlagParser& flags,
                                     const workload::ProblemSpec& spec) {
  core::KernelParams params = core::params_from_spec(spec);
  const std::string kernel = flags.get_string("kernel", "gaussian");
  if (kernel == "gaussian") {
    params.type = core::KernelType::kGaussian;
  } else if (kernel == "laplace") {
    params.type = core::KernelType::kLaplace3d;
  } else if (kernel == "matern") {
    params.type = core::KernelType::kMatern32;
  } else if (kernel == "cauchy") {
    params.type = core::KernelType::kCauchy;
  } else if (kernel == "polynomial") {
    params.type = core::KernelType::kPolynomial2;
  } else {
    throw Error("unknown --kernel: " + kernel);
  }
  return params;
}

config::profiles::DeviceProfile profile_from_flags(const FlagParser& flags) {
  return config::profiles::resolve(flags.get_string("profile", "gtx970"));
}

pipelines::RunOptions options_from_flags(
    const FlagParser& flags, const config::profiles::DeviceProfile& profile) {
  pipelines::RunOptions options;
  options.device = profile.device;
  options.timing = profile.timing;
  options.energy = profile.energy;
  if (flags.get_string("layout", "fig5") == "naive") {
    options.mainloop.layout = gpukernels::TileLayout::kNaive;
  }
  options.mainloop.double_buffer = !flags.get_bool("no-double-buffer");
  options.atomic_reduction = !flags.get_bool("staged-reduction");
  options.fuse_norms = flags.get_bool("fuse-norms");
  options.device.cache_globals_in_l1 = flags.get_bool("l1");
  return options;
}

void declare_problem_flags(FlagParser& flags) {
  flags.declare("m", "source point count (ragged sizes are zero-padded)")
      .declare("n", "target point count (ragged sizes are zero-padded)")
      .declare("k", "geometric dimension (ragged sizes are zero-padded)")
      .declare("h", "kernel bandwidth")
      .declare("seed", "workload seed")
      .declare("dist",
               "point distribution: uniform-cube | gaussian-mixture | "
               "unit-sphere | grid")
      .declare("kernel",
               "kernel function: gaussian | laplace | matern | cauchy | "
               "polynomial")
      .declare("layout", "shared-memory layout: fig5 | naive")
      .declare("no-double-buffer", "disable tile double buffering", false)
      .declare("staged-reduction",
               "two-pass inter-CTA reduction instead of atomicAdd", false)
      .declare("fuse-norms",
               "compute squared norms inside the fused kernel "
               "(beyond-the-paper optimisation)", false)
      .declare("l1", "cache global loads in the per-SM L1 (-dlcm=ca)", false)
      .declare("profile",
               "device profile: gtx970 | titanx-maxwell | modern, or a "
               "ksum-device-profile-v1 JSON file")
      .declare("fault-rate",
               "per-opportunity fault-injection probability on every site "
               "(0 = no injection)")
      .declare("fault-seed", "fault-injection seed")
      .declare("robust",
               "enable the ABFT checks and the detect/retry/fallback "
               "recovery policy", false)
      .declare("help", "show this help", false);
}

/// Applies --shards/--shard-axis to `options`. `--shards=N` splits the run
/// over N warm devices; 'auto' picks the smallest count whose per-shard
/// arena fits the device budget. Throws ksum::Error (exit 2) for the flag
/// conflicts sharding cannot honour: host backends have no devices to
/// shard over, and the N-axis staged-partial merge is a fused-kernel
/// contract (docs/SHARDING.md).
void shards_from_flags(const FlagParser& flags, bool simulated,
                       pipelines::Backend backend,
                       pipelines::RunOptions& options) {
  const std::string shards = flags.get_string("shards", "");
  const std::string axis = flags.get_string("shard-axis", "auto");
  KSUM_REQUIRE(axis == "m" || axis == "n" || axis == "auto",
               "--shard-axis must be m, n or auto, got: " + axis);
  if (shards.empty()) {
    KSUM_REQUIRE(!flags.has("shard-axis"),
                 "conflicting flags: --shard-axis qualifies --shards; give "
                 "--shards=N|auto too");
    return;
  }
  KSUM_REQUIRE(simulated,
               "conflicting flags: --shards needs a simulated backend "
               "(each shard runs on its own simulated device)");
  KSUM_REQUIRE(axis != "n" || backend == pipelines::Backend::kSimFused,
               "conflicting flags: --shard-axis=n needs --solution=fused "
               "(the staged-partial merge replays the fused kernel's "
               "reduction)");
  if (shards == "auto") {
    options.shards.count = 0;
  } else {
    long long count = 0;
    try {
      count = std::stoll(shards);
    } catch (const std::exception&) {
      throw Error("--shards must be a positive integer or 'auto', got: " +
                  shards);
    }
    KSUM_REQUIRE(count >= 1,
                 "--shards must be a positive integer or 'auto', got: " +
                     shards);
    options.shards.count = std::size_t(count);
  }
  if (axis == "m") {
    options.shards.axis = shard::ShardAxis::kM;
  } else if (axis == "n") {
    options.shards.axis = shard::ShardAxis::kN;
  }
}

/// Applies --tree-eps/--tree to `options`. Returns the cost-model adapter
/// TreeMode::kAuto consults — keep it alive through the solve. Throws
/// ksum::Error (exit 2) for the combinations the treecode cannot honour
/// (docs/TREECODE.md): host and unfused backends have no fused tile kernel
/// for the near field, and fault injection voids the ε guarantee.
std::unique_ptr<tree::DenseCostModel> tree_from_flags(
    const FlagParser& flags, pipelines::Backend backend,
    pipelines::RunOptions& options) {
  const std::string mode = flags.get_string("tree", "force");
  KSUM_REQUIRE(mode == "force" || mode == "auto",
               "--tree must be force or auto, got: " + mode);
  if (!flags.has("tree-eps")) {
    KSUM_REQUIRE(!flags.has("tree"),
                 "conflicting flags: --tree qualifies --tree-eps; give "
                 "--tree-eps=EPS too");
    return nullptr;
  }
  const double eps = flags.get_double("tree-eps", 0.0);
  KSUM_REQUIRE(eps >= 0.0,
               "--tree-eps must be non-negative, got: " + std::to_string(eps));
  KSUM_REQUIRE(backend == pipelines::Backend::kSimFused,
               "conflicting flags: --tree-eps needs --solution=fused "
               "(the near field runs through the fused tile kernel)");
  KSUM_REQUIRE(flags.get_double("fault-rate", 0.0) == 0.0,
               "conflicting flags: --tree-eps cannot run under --fault-rate "
               "(an injected fault in a near-field block voids the eps "
               "guarantee)");
  options.tree.eps = eps;
  options.tree.box_leaf = flags.get_size("tree-box-leaf", options.tree.box_leaf);
  options.tree.row_leaf = flags.get_size("tree-row-leaf", options.tree.row_leaf);
  KSUM_REQUIRE(options.tree.box_leaf >= 1 && options.tree.row_leaf >= 1,
               "--tree-box-leaf and --tree-row-leaf must be positive");
  if (mode == "auto") {
    options.tree.mode = tree::TreeMode::kAuto;
    auto model = std::make_unique<analytic::DenseCost>(options);
    options.tree.cost_model = model.get();
    return model;
  }
  return nullptr;
}

/// Builds the fault injector requested by --fault-rate/--fault-seed (null
/// when injection is off) and flips on checks/recovery for --robust. The
/// returned plan owns the injector `options` points at — keep it alive
/// through the solve. Sharded runs reject a plain injector (one stream
/// cannot say which device a fault lives on), so when options.shards is
/// enabled the seed feeds a per-(shard, dispatch) factory instead.
std::unique_ptr<robust::FaultPlan> robustness_from_flags(
    const FlagParser& flags, pipelines::RunOptions& options) {
  std::unique_ptr<robust::FaultPlan> plan;
  const double rate = flags.get_double("fault-rate", 0.0);
  KSUM_REQUIRE(rate >= 0.0 && rate <= 1.0, "fault rate must be in [0, 1]");
  if (rate > 0.0) {
    const auto seed = std::uint64_t(flags.get_int("fault-seed", 1));
    if (options.shards.enabled()) {
      options.shards.injector_factory =
          [seed, rate](std::size_t s, int d)
          -> std::shared_ptr<gpusim::FaultInjector> {
        return std::make_shared<robust::FaultPlan>(
            robust::FaultPlanConfig::uniform(
                shard::shard_fault_seed(seed, s, d), rate));
      };
    } else {
      plan = std::make_unique<robust::FaultPlan>(
          robust::FaultPlanConfig::uniform(seed, rate));
      options.fault_injector = plan.get();
    }
  }
  if (flags.get_bool("robust")) {
    options.checks.enabled = true;
    options.recovery.enabled = true;
  }
  return plan;
}

/// Prints the executed shard plan and per-shard outcomes — pure function of
/// the request (worker scheduling never changes it).
void print_shard_report(const shard::ShardReport& report) {
  std::printf("sharding: axis=%s shards=%zu workers=%d attempts=%d\n",
              shard::to_string(report.axis).c_str(), report.count(),
              report.workers, report.total_attempts());
  for (const auto& s : report.slices) {
    std::printf("  shard %zu [%zu, %zu)  dispatches=%d attempts=%d "
                "faults=%d%s\n",
                s.index, s.begin, s.end, s.dispatches, s.recovery.attempts,
                s.recovery.faults_detected,
                s.recovery.gave_up ? "  GAVE UP" : "");
  }
}

/// Parses --tile=MxNxK into a full geometry: the block is the tile divided
/// by the first micro-tile edge in {8, 4, 16, 12} that yields a
/// structurally valid decomposition. Throws ksum::Error (exit 2) when the
/// string is malformed or no decomposition exists.
gpukernels::TileGeometry tile_from_spec(const std::string& value) {
  int tile_m = 0, tile_n = 0, tile_k = 0;
  char trailing = 0;
  const int matched = std::sscanf(value.c_str(), "%dx%dx%d%c", &tile_m,
                                  &tile_n, &tile_k, &trailing);
  KSUM_REQUIRE(matched == 3 && tile_m > 0 && tile_n > 0 && tile_k > 0,
               "--tile must be MxNxK (e.g. 128x128x8) or 'auto', got: " +
                   value);
  for (const int micro : {8, 4, 16, 12}) {
    if (tile_m % micro != 0 || tile_n % micro != 0) continue;
    gpukernels::TileGeometry g;
    g.tile_m = tile_m;
    g.tile_n = tile_n;
    g.tile_k = tile_k;
    g.block_x = tile_n / micro;
    g.block_y = tile_m / micro;
    g.micro = micro;
    if (g.structurally_valid()) return g;
  }
  throw Error("--tile=" + value +
              " has no structurally valid micro-tile decomposition");
}

std::string join_reasons(const std::vector<std::string>& reasons) {
  std::string out;
  for (const auto& r : reasons) {
    if (!out.empty()) out += "; ";
    out += r;
  }
  return out;
}

/// Applies --tile to `options` for one (m, n, k, backend) problem. Returns
/// false (exit 1) after printing the named budget violations when an
/// explicit geometry is rejected by the resource checks. `cache` must
/// outlive the solve when --tile=auto attaches it as the resolver.
/// Tuner options matching a solve's RunOptions (same device state, same
/// layout), keyed under the named profile so cached winners never leak
/// across architectures.
tune::TuneOptions tune_options_for(const pipelines::RunOptions& options,
                                   const std::string& profile_name) {
  tune::TuneOptions tune_options;
  tune_options.device = options.device;
  tune_options.timing = options.timing;
  tune_options.energy = options.energy;
  tune_options.layout = options.mainloop.layout;
  tune_options.profile = profile_name;
  return tune_options;
}

bool apply_tile_flag(const std::string& tile, std::size_t m, std::size_t n,
                     std::size_t k, pipelines::Backend backend,
                     const std::string& profile_name, tune::TuningCache& cache,
                     pipelines::RunOptions& options) {
  if (tile == "auto") {
    const auto tune_options = tune_options_for(options, profile_name);
    const auto entry = cache.get_or_tune(m, n, k, backend, tune_options);
    options.mainloop.geometry = entry.geometry;
    std::printf("tile geometry: %s (autotuned)\n",
                entry.geometry.to_string().c_str());
    return true;
  }
  const auto geometry = tile_from_spec(tile);
  const auto verdict =
      tune::evaluate_candidate(options.device, geometry,
                               options.mainloop.layout);
  if (!verdict.viable) {
    std::fprintf(stderr, "ksum-cli: tile geometry %s rejected: %s\n",
                 geometry.to_string().c_str(),
                 join_reasons(verdict.reasons).c_str());
    return false;
  }
  options.mainloop.geometry = geometry;
  std::printf("tile geometry: %s\n", geometry.to_string().c_str());
  return true;
}

/// Runs a --batch CSV through pipelines::solve_many and prints the
/// submission-ordered summary. Everything printed to stdout is a pure
/// function of the requests, so the report is byte-identical for any
/// --threads value (wall-clock goes to stderr).
int run_batch(const FlagParser& flags, pipelines::Backend backend,
              const std::string& profile_name,
              const pipelines::RunOptions& options) {
  pipelines::BatchRequest base;
  base.spec = spec_from_flags(flags);
  base.params = params_from_flags(flags, base.spec);
  base.backend = backend;
  base.options = options;
  base.fault_rate = flags.get_double("fault-rate", 0.0);
  KSUM_REQUIRE(base.fault_rate >= 0.0 && base.fault_rate <= 1.0,
               "fault rate must be in [0, 1]");
  if (flags.get_bool("robust")) {
    base.options.checks.enabled = true;
    base.options.recovery.enabled = true;
  }
  base.verify = flags.get_bool("verify");

  // --tile applies to the whole batch: a fixed geometry is vetted once and
  // copied into every request; 'auto' attaches the tuning cache as the
  // solver's geometry resolver and pre-tunes each shape, so duplicate
  // shapes tune exactly once and the per-request output stays a pure
  // function of the submission order.
  const std::string tile = flags.get_string("tile", "");
  tune::TuningCache tile_cache;  // outlives solve_many below
  tile_cache.set_profile(profile_name);
  if (!tile.empty() && tile != "auto") {
    if (!apply_tile_flag(tile, base.spec.m, base.spec.n, base.spec.k, backend,
                         profile_name, tile_cache, base.options)) {
      return 1;
    }
  } else if (tile == "auto") {
    base.options.geometry_resolver = &tile_cache;
  }

  const std::string path = flags.get_string("batch", "");
  KSUM_REQUIRE(!path.empty(), "--batch needs a file path");
  std::ifstream in(path);
  if (!in) throw Error("cannot open batch file: " + path);
  auto requests = pipelines::parse_batch_csv(in, base);
  KSUM_REQUIRE(!requests.empty(), "batch file has no requests: " + path);

  if (tile == "auto") {
    const auto tune_options = tune_options_for(base.options, profile_name);
    for (const auto& r : requests) {
      tile_cache.get_or_tune(r.spec.m, r.spec.n, r.spec.k, backend,
                             tune_options);
    }
    std::printf("tile geometry: autotuned per shape (%zu cache entries)\n",
                tile_cache.size());
  }
  if (flags.has("fault-seed")) {
    // An explicit base seed still gives every request an independent
    // stream, offset by its submission index (replayable end to end).
    const auto seed = std::uint64_t(flags.get_int("fault-seed", 1));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].fault_seed = seed + i;
    }
  }

  pipelines::BatchOptions batch_options;
  batch_options.threads = int(flags.get_int("threads", 1));

  Timer timer;
  const auto results = pipelines::solve_many(requests, batch_options);
  const double wall = timer.seconds();

  std::printf("batch of %zu request(s), %s backend\n", results.size(),
              pipelines::to_string(backend).c_str());
  double total_seconds = 0, total_energy = 0;
  std::size_t failed = 0, errored = 0;
  for (const auto& r : results) {
    const auto& spec = requests[r.index].spec;
    if (!r.error.empty()) {
      std::printf("[%3zu] %zux%zu K=%zu seed=%llu  status=%s  ERROR: %s\n",
                  r.index, spec.m, spec.n, spec.k,
                  static_cast<unsigned long long>(spec.seed),
                  to_string(r.status), r.error.c_str());
      ++errored;
      continue;
    }
    std::string status = std::string("status=") + to_string(r.status);
    if (r.solve.recovery.faults_detected > 0) {
      status += r.solve.recovery.gave_up ? " (gave up)" : " (recovered)";
    }
    if (r.solve.shards.has_value()) {
      status += " shards=";
      status += std::to_string(r.solve.shards->count());
    }
    if (r.solve.report) {
      std::printf("[%3zu] %zux%zu K=%zu seed=%llu  %.3f ms  %.4f J",
                  r.index, spec.m, spec.n, spec.k,
                  static_cast<unsigned long long>(spec.seed),
                  r.solve.report->seconds * 1e3,
                  r.solve.report->energy.total());
      total_seconds += r.solve.report->seconds;
      total_energy += r.solve.report->energy.total();
    } else {
      std::printf("[%3zu] %zux%zu K=%zu seed=%llu  (host)", r.index, spec.m,
                  spec.n, spec.k,
                  static_cast<unsigned long long>(spec.seed));
    }
    if (requests[r.index].verify) {
      std::printf("  err=%.2e", r.oracle_rel_error);
    }
    std::printf("  %s\n", status.c_str());
    if (!r.ok) ++failed;
  }
  std::printf("totals: %.3f ms modelled, %.4f J, %zu/%zu ok\n",
              total_seconds * 1e3, total_energy,
              results.size() - failed - errored, results.size());
  std::fprintf(stderr, "ksum-cli: batch wall-clock %.3f s on %d thread(s)\n",
               wall, batch_options.threads);
  if (errored > 0) return 2;
  return failed > 0 ? 1 : 0;
}

int cmd_solve(int argc, const char* const* argv) {
  FlagParser flags;
  declare_problem_flags(flags);
  flags
      .declare("solution",
               "fused | cuda-unfused | cublas-unfused | cpu-direct | "
               "cpu-expansion")
      .declare("verify", "cross-check against the host oracle", false)
      .declare("batch",
               "CSV file of batch requests (m,n,k[,seed[,h]] per line), run "
               "concurrently with deterministic submission-order output")
      .declare("threads",
               "worker threads for --batch execution (default 1)")
      .declare("tile",
               "tile geometry MxNxK (e.g. 128x128x8), or 'auto' to pick via "
               "the runtime autotuner")
      .declare("shards",
               "split the run across N warm devices with a bit-identical "
               "merge, or 'auto' to fit each shard into the device arena")
      .declare("shard-axis",
               "axis to split for --shards: m | n | auto (planner picks)")
      .declare("tree-eps",
               "treecode max-abs error budget eps (docs/TREECODE.md); "
               "0 = dense execution")
      .declare("tree",
               "treecode decision for --tree-eps: force | auto (the "
               "analytic cost model picks dense when it is cheaper)")
      .declare("tree-box-leaf",
               "treecode box capacity for the weighted points (default 256)")
      .declare("tree-row-leaf",
               "treecode row-cluster capacity (default 128)");
  flags.parse(argc, argv, 2);
  if (flags.get_bool("help")) {
    std::printf("ksum-cli solve — run one kernel summation\n%s",
                flags.usage().c_str());
    return 0;
  }

  KSUM_REQUIRE(flags.positional().empty(),
               "solve takes no positional arguments\n" + flags.usage());

  const std::string name = flags.get_string("solution", "fused");
  pipelines::Backend backend;
  if (name == "fused") {
    backend = pipelines::Backend::kSimFused;
  } else if (name == "cuda-unfused") {
    backend = pipelines::Backend::kSimCudaUnfused;
  } else if (name == "cublas-unfused") {
    backend = pipelines::Backend::kSimCublasUnfused;
  } else if (name == "cpu-direct") {
    backend = pipelines::Backend::kCpuDirect;
  } else if (name == "cpu-expansion") {
    backend = pipelines::Backend::kCpuExpansion;
  } else {
    throw Error("unknown --solution: " + name);
  }

  // --threads is validated before any conflict checks so `--threads=0` is
  // always the usage error the contract promises (exit 2).
  const long long threads = flags.get_int("threads", 1);
  KSUM_REQUIRE(threads >= 1 && threads <= exec::ThreadPool::kMaxThreads,
               "--threads must be in [1, " +
                   std::to_string(exec::ThreadPool::kMaxThreads) + "], got " +
                   std::to_string(threads));
  KSUM_REQUIRE(!flags.has("threads") || flags.has("batch"),
               "conflicting flags: --threads drives --batch execution; give "
               "--batch=FILE too");

  const bool simulated = backend == pipelines::Backend::kSimFused ||
                         backend == pipelines::Backend::kSimCudaUnfused ||
                         backend == pipelines::Backend::kSimCublasUnfused;
  KSUM_REQUIRE(!flags.get_bool("fuse-norms") ||
                   backend == pipelines::Backend::kSimFused,
               "conflicting flags: --fuse-norms only applies to "
               "--solution=fused");
  KSUM_REQUIRE(!flags.get_bool("staged-reduction") ||
                   backend == pipelines::Backend::kSimFused,
               "conflicting flags: --staged-reduction only applies to "
               "--solution=fused");
  KSUM_REQUIRE(simulated || !flags.get_bool("robust"),
               "conflicting flags: --robust needs a simulated backend "
               "(--solution=" + name + " runs on the host)");
  KSUM_REQUIRE(simulated || flags.get_double("fault-rate", 0.0) == 0.0,
               "conflicting flags: --fault-rate needs a simulated backend "
               "(--solution=" + name + " runs on the host)");
  KSUM_REQUIRE(simulated || flags.get_string("tile", "").empty(),
               "conflicting flags: --tile needs a simulated backend "
               "(--solution=" + name + " runs on the host)");

  const auto profile = profile_from_flags(flags);
  auto options = options_from_flags(flags, profile);
  shards_from_flags(flags, simulated, backend, options);
  const auto dense_cost = tree_from_flags(flags, backend, options);

  if (flags.has("batch")) {
    return run_batch(flags, backend, profile.name, options);
  }

  const auto spec = spec_from_flags(flags);
  const auto params = params_from_flags(flags, spec);
  const auto plan = robustness_from_flags(flags, options);
  const auto instance = workload::make_instance(spec);

  tune::TuningCache tile_cache;
  tile_cache.set_profile(profile.name);
  const std::string tile = flags.get_string("tile", "");
  if (!tile.empty() && !apply_tile_flag(tile, spec.m, spec.n, spec.k, backend,
                                        profile.name, tile_cache, options)) {
    return 1;
  }

  const auto result = pipelines::solve(instance, params, backend, options);
  std::printf("%s on %s\n", pipelines::to_string(backend).c_str(),
              spec.to_string().c_str());
  if (result.report) {
    report::pipeline_kernel_table(*result.report, options.device)
        .print(std::cout);
    report::pipeline_summary_table(*result.report).print(std::cout);
  } else {
    std::printf("host time: %.3f s\n", result.host_seconds);
  }
  if (result.report && result.report->robustness.checks_enabled) {
    std::printf("robustness: %s\n",
                result.report->robustness.to_string().c_str());
    std::printf("recovery  : %s\n", result.recovery.to_string().c_str());
  }
  if (result.shards.has_value()) {
    print_shard_report(*result.shards);
  }
  if (result.tree.has_value()) {
    std::printf("%s\n", result.tree->to_string().c_str());
  }
  if (plan) {
    std::printf("%s\n", plan->to_string().c_str());
  }
  if (result.recovery.gave_up) {
    std::fprintf(stderr, "ksum-cli: fault detected and not recovered\n");
    return 1;
  }
  if (flags.get_bool("verify")) {
    const auto oracle =
        pipelines::solve(instance, params, pipelines::Backend::kCpuDirect);
    const double err =
        blas::max_rel_diff(result.v.span(), oracle.v.span(), 1e-3);
    std::printf("max relative error vs oracle: %.3e %s\n", err,
                err < 1e-2 ? "(ok)" : "(FAILED)");
    return err < 1e-2 ? 0 : 1;
  }
  return 0;
}

int cmd_knn(int argc, const char* const* argv) {
  FlagParser flags;
  declare_problem_flags(flags);
  flags.declare("neighbors", "neighbours per query (1..16)")
      .declare("unfused", "use the unfused baseline", false)
      .declare("verify", "cross-check against the host oracle", false);
  flags.parse(argc, argv, 2);
  if (flags.get_bool("help")) {
    std::printf("ksum-cli knn — k-nearest-neighbour search\n%s",
                flags.usage().c_str());
    return 0;
  }

  KSUM_REQUIRE(flags.positional().empty(),
               "knn takes no positional arguments\n" + flags.usage());
  KSUM_REQUIRE(!flags.get_bool("robust") &&
                   flags.get_double("fault-rate", 0.0) == 0.0,
               "conflicting flags: the kNN pipelines have no ABFT fork; "
               "--robust/--fault-rate apply to solve only");

  const auto spec = spec_from_flags(flags);
  const auto instance = workload::make_instance(spec);
  const std::size_t k_nn = flags.get_size("neighbors", 8);
  KSUM_REQUIRE(k_nn >= 1 && k_nn <= 16, "--neighbors must be in [1, 16]");
  const auto solution = flags.get_bool("unfused")
                            ? pipelines::KnnSolution::kUnfused
                            : pipelines::KnnSolution::kFused;
  const auto profile = profile_from_flags(flags);
  const auto knn_options = options_from_flags(flags, profile);
  const auto report =
      pipelines::run_knn_pipeline(solution, instance, k_nn, knn_options);
  report::knn_kernel_table(report, knn_options.device).print(std::cout);
  std::printf("modelled time %.3f ms, energy %.4f J\n", report.seconds * 1e3,
              report.energy.total());
  if (flags.get_bool("verify")) {
    const auto oracle = core::knn_exact(instance, k_nn);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < spec.m; ++i) {
      if (report.result.index(i, 0) != oracle.index(i, 0)) ++mismatches;
    }
    std::printf("nearest-neighbour mismatches vs oracle: %zu / %zu %s\n",
                mismatches, spec.m, mismatches == 0 ? "(ok)" : "(FAILED)");
    return mismatches == 0 ? 0 : 1;
  }
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  FlagParser flags;
  flags.declare("fast", "Table-II grid instead of the full figure grid",
                false)
      .declare("help", "show this help", false);
  flags.parse(argc, argv, 2);
  if (flags.get_bool("help")) {
    std::printf("ksum-cli sweep — regenerate every paper table/figure\n%s",
                flags.usage().c_str());
    return 0;
  }
  analytic::PipelineModel model;
  const auto specs = flags.get_bool("fast")
                         ? workload::paper_table_sweep()
                         : workload::paper_figure_sweep();
  const auto points = report::evaluate_sweep(model, specs);
  report::table1_device_config(config::DeviceSpec::gtx970())
      .print(std::cout);
  report::fig1_energy_breakdown_cublas(points).print(std::cout);
  report::fig2_l2_mpki(points).print(std::cout);
  report::fig6_execution_time(points).print(std::cout);
  report::table2_flop_efficiency(points).print(std::cout);
  report::fig7_gemm_comparison(model, specs).print(std::cout);
  report::fig8a_l2_transactions(points).print(std::cout);
  report::fig8b_dram_transactions(points).print(std::cout);
  report::table3_energy_savings(points).print(std::cout);
  report::fig9_energy_breakdown(points).print(std::cout);
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  FlagParser flags;
  flags.declare("profile",
                "device profile: gtx970 | titanx-maxwell | modern, or a "
                "ksum-device-profile-v1 JSON file")
      .declare("help", "show this help", false);
  flags.parse(argc, argv, 2);
  if (flags.get_bool("help")) {
    std::printf("ksum-cli info — describe the simulated device\n%s",
                flags.usage().c_str());
    return 0;
  }
  KSUM_REQUIRE(flags.positional().empty(),
               "info takes no positional arguments\n" + flags.usage());

  const auto profile = profile_from_flags(flags);
  // The paper device prints exactly the pre-profile report (so
  // --profile=gtx970 is byte-identical to no flag); any other profile adds
  // its identity line and titles the table with its own name.
  if (profile.name == "gtx970") {
    report::table1_device_config(profile.device).print(std::cout);
  } else {
    std::printf("profile: %s — %s\n", profile.name.c_str(),
                profile.description.c_str());
    report::table1_device_config(profile.device, profile.name)
        .print(std::cout);
  }
  const auto& spec = profile.device;
  std::printf("peak SP throughput : %.2f TFLOP/s\n",
              spec.peak_sp_flops() / 1e12);
  std::printf("DRAM bandwidth     : %.0f GB/s (modelled achievable)\n",
              spec.dram_bandwidth_gb_s);
  return 0;
}

/// `ksum-cli profile` — list, dump, or validate device profiles. --show
/// prints the canonical serialisation (what the shipped profiles/*.json
/// files contain, byte for byte); --validate runs the executable schema
/// plus the serialise→load→serialise fixpoint check on a file.
int cmd_profile(int argc, const char* const* argv) {
  FlagParser flags;
  flags.declare("list", "list the built-in profiles", false)
      .declare("show", "print a profile (built-in name or file) as JSON")
      .declare("validate", "validate a ksum-device-profile-v1 file")
      .declare("help", "show this help", false);
  flags.parse(argc, argv, 2);
  if (flags.get_bool("help")) {
    std::printf("ksum-cli profile — inspect and validate device profiles\n%s",
                flags.usage().c_str());
    return 0;
  }
  KSUM_REQUIRE(flags.positional().empty(),
               "profile takes no positional arguments\n" + flags.usage());
  const int modes = (flags.get_bool("list") ? 1 : 0) +
                    (flags.has("show") ? 1 : 0) +
                    (flags.has("validate") ? 1 : 0);
  KSUM_REQUIRE(modes == 1,
               "profile needs exactly one of --list, --show, --validate\n" +
                   flags.usage());

  if (flags.get_bool("list")) {
    for (const auto& name : config::profiles::builtin_names()) {
      const auto p = config::profiles::builtin(name);
      std::printf("%-15s %s\n", p.name.c_str(), p.description.c_str());
    }
    return 0;
  }
  if (flags.has("show")) {
    const auto p = config::profiles::resolve(flags.get_string("show", ""));
    std::printf("%s\n", config::profiles::to_json(p).dump().c_str());
    return 0;
  }
  const std::string path = flags.get_string("validate", "");
  const auto p = config::profiles::load(path);
  // load() already validated the record; pin the round-trip contract too:
  // serialising what we loaded must reproduce a fixpoint.
  const std::string once = config::profiles::to_json(p).dump();
  const std::string twice =
      config::profiles::to_json(
          config::profiles::from_json(profile::Json::parse(once)))
          .dump();
  KSUM_CHECK_MSG(once == twice,
                 "profile serialisation is not a round-trip fixpoint: " +
                     path);
  std::printf("%s: ok (profile '%s', schema ksum-device-profile-v1)\n",
              path.c_str(), p.name.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: ksum-cli <solve|knn|sweep|info|profile> [flags]\n"
      "       ksum-cli <subcommand> --help\n"
      "exit codes: 0 ok, 1 verification/recovery failure, 2 invalid input, "
      "3 internal error\n";
  if (argc < 2) {
    std::fputs(usage.c_str(), stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "solve") return cmd_solve(argc, argv);
    if (cmd == "knn") return cmd_knn(argc, argv);
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "profile") return cmd_profile(argc, argv);
    std::fputs(usage.c_str(), stderr);
    return 2;
  } catch (const ksum::InternalError& e) {
    std::fprintf(stderr, "ksum-cli: internal error: %s\n", e.what());
    return 3;
  } catch (const ksum::Error& e) {
    std::fprintf(stderr, "ksum-cli: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ksum-cli: %s\n", e.what());
    return 3;
  }
}
