#include "tools/tool_flags.h"

#include <charconv>
#include <cstdio>
#include <exception>
#include <utility>

#include "analytic/dense_cost.h"
#include "common/error.h"
#include "exec/thread_pool.h"
#include "profile/record.h"

namespace ksum::tools {

namespace {

/// True when the tool declares `name` and the command line gives it.
bool given(const FlagParser& flags, const std::string& name) {
  return flags.declared(name) && flags.has(name);
}

}  // namespace

int run_main(const char* tool, const std::function<int()>& body) {
  try {
    return body();
  } catch (const ksum::InternalError& e) {
    std::fprintf(stderr, "%s: internal error: %s\n", tool, e.what());
    return 3;
  } catch (const ksum::Error& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 3;
  }
}

bool parse_or_help(FlagParser& flags, int argc, const char* const* argv,
                   int first, const std::string& title,
                   const std::string& command) {
  flags.declare("help", "show this help", false);
  flags.parse(argc, argv, first);
  if (flags.get_bool("help")) {
    std::printf("%s\n%s", title.c_str(), flags.usage().c_str());
    return true;
  }
  KSUM_REQUIRE(command.empty() || flags.positional().empty(),
               command + " takes no positional arguments\n" + flags.usage());
  return false;
}

pipelines::RunOptions DeviceFlags::run_options() const {
  pipelines::RunOptions options;
  options.device = profile.device;
  options.timing = profile.timing;
  options.energy = profile.energy;
  options.mainloop.layout = layout;
  return options;
}

void declare_device_flags(FlagParser& flags, bool with_layout) {
  flags.declare("profile",
                "device profile: gtx970 | titanx-maxwell | modern, or a "
                "ksum-device-profile-v1 JSON file");
  if (with_layout) {
    flags.declare("layout",
                  "shared-memory tile layout: fig5 (default) | naive");
  }
}

DeviceFlags device_from_flags(const FlagParser& flags) {
  DeviceFlags out;
  const std::string layout =
      given(flags, "layout") ? flags.get_string("layout", "fig5") : "fig5";
  if (layout == "naive") {
    out.layout = gpukernels::TileLayout::kNaive;
  } else if (layout != "fig5") {
    throw Error("unknown --layout: " + layout + " (fig5 | naive)");
  }
  out.profile =
      config::profiles::resolve(flags.get_string("profile", "gtx970"));
  return out;
}

pipelines::Backend solution_from_flags(const FlagParser& flags,
                                       bool simulated_only) {
  static const std::pair<const char*, pipelines::Backend> kSolutions[] = {
      {"fused", pipelines::Backend::kSimFused},
      {"cuda-unfused", pipelines::Backend::kSimCudaUnfused},
      {"cublas-unfused", pipelines::Backend::kSimCublasUnfused},
      {"cpu-direct", pipelines::Backend::kCpuDirect},
      {"cpu-expansion", pipelines::Backend::kCpuExpansion},
  };
  const std::string name = flags.get_string("solution", "fused");
  for (const auto& [solution, backend] : kSolutions) {
    if (name != solution) continue;
    KSUM_REQUIRE(!simulated_only || pipelines::is_simulated(backend),
                 "--solution=" + name +
                     " runs on the host; tuning needs a simulated pipeline: "
                     "fused | cuda-unfused | cublas-unfused");
    return backend;
  }
  throw Error("unknown --solution: " + name);
}

int threads_from_flags(const FlagParser& flags) {
  const long long threads = flags.get_int("threads", 1);
  KSUM_REQUIRE(threads >= 1 && threads <= exec::ThreadPool::kMaxThreads,
               "--threads must be in [1, " +
                   std::to_string(exec::ThreadPool::kMaxThreads) + "], got " +
                   std::to_string(threads));
  KSUM_REQUIRE(!flags.declared("batch") || !flags.has("threads") ||
                   flags.has("batch"),
               "conflicting flags: --threads drives --batch execution; give "
               "--batch too");
  return static_cast<int>(threads);
}

void kernel_flags_from_flags(const FlagParser& flags, bool fused_solve,
                             pipelines::RunOptions& options) {
  for (const char* name : {"staged-reduction", "fuse-norms"}) {
    KSUM_REQUIRE(fused_solve || !flags.get_bool(name),
                 std::string("conflicting flags: --") + name +
                     " only applies to the fused solve (solve "
                     "--solution=fused)");
  }
  options.mainloop.double_buffer = !flags.get_bool("no-double-buffer");
  options.atomic_reduction = !flags.get_bool("staged-reduction");
  options.fuse_norms = flags.get_bool("fuse-norms");
  options.device.cache_globals_in_l1 = flags.get_bool("l1");
}

FaultFlags faults_from_flags(const FlagParser& flags,
                             pipelines::Backend backend,
                             pipelines::RunOptions& options) {
  FaultFlags out;
  out.rate = flags.get_double("fault-rate", 0.0);
  KSUM_REQUIRE(out.rate >= 0.0 && out.rate <= 1.0,
               "fault rate must be in [0, 1]");
  KSUM_REQUIRE(!flags.has("fault-seed") || flags.has("fault-rate"),
               "conflicting flags: --fault-seed qualifies --fault-rate; give "
               "--fault-rate=R too");
  const bool robust = flags.get_bool("robust");
  const std::string on_host =
      " (--solution=" + pipelines::to_string(backend) + " runs on the host)";
  KSUM_REQUIRE(pipelines::is_simulated(backend) || !robust,
               "conflicting flags: --robust needs a simulated backend" +
                   on_host);
  KSUM_REQUIRE(pipelines::is_simulated(backend) || out.rate == 0.0,
               "conflicting flags: --fault-rate needs a simulated backend" +
                   on_host);
  if (flags.has("fault-seed")) {
    out.seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  }
  if (robust) {
    options.checks.enabled = true;
    options.recovery.enabled = true;
  }
  return out;
}

void shards_from_flags(const FlagParser& flags, pipelines::Backend backend,
                       pipelines::RunOptions& options,
                       std::size_t max_shards) {
  const std::string axis = flags.get_string("shard-axis", "auto");
  KSUM_REQUIRE(axis == "m" || axis == "n" || axis == "auto",
               "--shard-axis must be m, n or auto, got: " + axis);
  if (!flags.has("shards")) {
    KSUM_REQUIRE(!flags.has("shard-axis"),
                 "conflicting flags: --shard-axis qualifies --shards; give "
                 "--shards=N|auto too");
    return;
  }
  KSUM_REQUIRE(pipelines::is_simulated(backend),
               "conflicting flags: --shards needs a simulated backend "
               "(each shard runs on its own simulated device)");
  KSUM_REQUIRE(axis != "n" || backend == pipelines::Backend::kSimFused,
               "conflicting flags: --shard-axis=n needs --solution=fused "
               "(the staged-partial merge replays the fused kernel's "
               "reduction)");
  const std::string shards = flags.get_string("shards", "");
  long long count = 0;  // 0 = auto
  if (shards != "auto" || max_shards > 0) {
    const char* end = shards.data() + shards.size();
    const auto [ptr, ec] = std::from_chars(shards.data(), end, count);
    const bool whole = ec == std::errc() && ptr == end && count >= 1;
    if (max_shards > 0) {
      KSUM_REQUIRE(whole && count <= static_cast<long long>(max_shards),
                   "--shards must be in [1, " + std::to_string(max_shards) +
                       "], got " + shards);
    } else {
      KSUM_REQUIRE(whole, "--shards must be a positive integer or 'auto', "
                          "got: " + shards);
    }
  }
  options.shards.count = static_cast<std::size_t>(count);
  if (axis == "m") {
    options.shards.axis = shard::ShardAxis::kM;
  } else if (axis == "n") {
    options.shards.axis = shard::ShardAxis::kN;
  }
}

void tree_from_flags(const FlagParser& flags, pipelines::RunOptions& options) {
  const std::string mode =
      given(flags, "tree") ? flags.get_string("tree", "force") : "force";
  KSUM_REQUIRE(mode == "force" || mode == "auto",
               "--tree must be force or auto, got: " + mode);
  if (!flags.has("tree-eps")) {
    for (const char* name : {"tree", "tree-box-leaf", "tree-row-leaf"}) {
      KSUM_REQUIRE(!given(flags, name),
                   std::string("conflicting flags: --") + name +
                       " qualifies --tree-eps; give --tree-eps=EPS too");
    }
    return;
  }
  const double eps = flags.get_double("tree-eps", 0.0);
  KSUM_REQUIRE(eps >= 0.0,
               "--tree-eps must be non-negative, got: " + std::to_string(eps));
  KSUM_REQUIRE(!given(flags, "fault-rate") ||
                   flags.get_double("fault-rate", 0.0) == 0.0,
               "conflicting flags: --tree-eps cannot run under --fault-rate "
               "(an injected fault in a near-field block voids the eps "
               "guarantee)");
  options.tree.eps = eps;
  if (given(flags, "tree-box-leaf")) {
    options.tree.box_leaf = flags.get_size("tree-box-leaf", 0);
  }
  if (given(flags, "tree-row-leaf")) {
    options.tree.row_leaf = flags.get_size("tree-row-leaf", 0);
  }
  KSUM_REQUIRE(options.tree.box_leaf >= 1 && options.tree.row_leaf >= 1,
               "--tree-box-leaf and --tree-row-leaf must be positive");
  if (mode == "auto") options.tree.mode = tree::TreeMode::kAuto;
}

std::unique_ptr<tree::DenseCostModel> attach_dense_cost(
    pipelines::RunOptions& options) {
  if (options.tree.mode != tree::TreeMode::kAuto) return nullptr;
  auto model = std::make_unique<analytic::DenseCost>(options);
  options.tree.cost_model = model.get();
  return model;
}

void check_json_flags(const FlagParser& flags, const std::string& usage) {
  KSUM_REQUIRE(!(flags.get_bool("json") && flags.has("json-out")),
               "conflicting flags: use --json (stdout) or --json-out=FILE, "
               "not both\n" + usage);
}

bool emit_json(const FlagParser& flags, const profile::Json& record,
               const char* tool, const std::string& what) {
  if (flags.has("json-out")) {
    const std::string path = flags.get_string("json-out", "");
    KSUM_REQUIRE(!path.empty(), "--json-out needs a file path");
    profile::write_file(path, record.dump());
    std::fprintf(stderr, "%s: wrote %s to %s\n", tool, what.c_str(),
                 path.c_str());
  }
  if (!flags.get_bool("json")) return false;
  std::printf("%s", record.dump().c_str());
  return true;
}

}  // namespace ksum::tools
