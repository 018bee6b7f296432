// ksum-prof — launch profiler over the registered tile programs.
//
//   ksum-prof <program> [--layout=fig5|naive] [--json] [--json-out=FILE]
//                       [--trace=FILE] [--top-sites=N] [--verbose]
//   ksum-prof --batch=<p1,p2,...|all> [--threads=N] [--json|--json-out=FILE]
//   ksum-prof --shards=N [--shard-axis=m|n] [--json|--json-out=FILE]
//   ksum-prof --tree-eps=E [--tree-box-leaf=B] [--tree-row-leaf=R]
//                          [--json|--json-out=FILE]
//   ksum-prof --list
//
// Runs the named program (see ksum-lint --list / ksum-prof --list) with a
// LaunchProfiler attached and reports, per kernel launch: modelled time and
// the binding resource, phase slices (prologue / mainloop / epilogue /
// reduction), per-access-site traffic, and the per-site energy attribution.
//
//   --json           print the ksum-prof-v1 record to stdout instead of the
//                    human-readable report
//   --json-out=FILE  write the record to FILE (keeps the human report)
//   --trace=FILE     write a Chrome trace_event file (chrome://tracing,
//                    Perfetto)
//   --top-sites=N    show the N highest-energy access sites per launch
//                    (default 5, human report only — conflicts with --json)
//   --batch=LIST     profile several programs (comma-separated names, or
//                    "all") concurrently, each on its own device + profiler,
//                    and merge the records into one ksum-prof-batch-v1
//                    document in list order — byte-identical for any
//                    --threads value
//   --threads=N      worker threads for --batch (default 1)
//   --shards=N       profile the sharded fused pipeline (1024×1024, K=16):
//                    each shard of the plan runs its slice on its own fresh
//                    device, and the per-shard records merge into one
//                    ksum-prof-shard-v1 document (docs/SHARDING.md)
//   --shard-axis=A   axis for --shards: m | n | auto (planner picks)
//   --tree-eps=E     profile the treecode interaction plan (512×2048, K=2,
//                    h=0.05) at error budget E: near/far pair counts, the
//                    analytic truncation bound, and modelled dense-vs-tree
//                    seconds (the --tree=auto pricing: analytic pipeline
//                    model for every dense block, roofline for the far
//                    field), emitted as a ksum-prof-tree-v1 record
//                    (docs/TREECODE.md) — no solve runs
//   --tree-box-leaf / --tree-row-leaf   leaf sizes for --tree-eps
//                    (default 64/64)
//   --profile=P      device profile for every mode: a built-in name
//                    (gtx970 | titanx-maxwell | modern) or a
//                    ksum-device-profile-v1 file; the record's device.name
//                    carries the identity. Default gtx970 is bit-identical
//                    to the pre-profile records.
//
// Every emitted record is validated against the schema before it is
// written; a validation failure is an internal error.
//
// Exit codes: 0 success; 2 invalid input or usage, including conflicting or
// malformed flags (ksum::Error); 3 internal bug (ksum::InternalError).
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <string>

#include "analysis/program_registry.h"
#include "analytic/dense_cost.h"
#include "common/error.h"
#include "core/exact.h"
#include "exec/batch_engine.h"
#include "gpukernels/device_workspace.h"
#include "gpukernels/fused_ksum.h"
#include "gpukernels/norms.h"
#include "gpusim/access_site.h"
#include "pipelines/pipeline.h"
#include "profile/energy_attribution.h"
#include "profile/launch_profiler.h"
#include "profile/profile_json.h"
#include "profile/record.h"
#include "profile/trace_export.h"
#include "shard/plan.h"
#include "shard/runner.h"
#include "tools/tool_flags.h"
#include "tree/cost.h"
#include "tree/plan.h"
#include "workload/point_generators.h"

namespace {

using namespace ksum;

std::string iso_timestamp() {
  const std::time_t now = std::time(nullptr);
  char buf[32];
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

void print_human_report(const profile::ProgramProfile& prof,
                        std::size_t top_sites, bool verbose) {
  auto& registry = gpusim::SiteRegistry::instance();
  std::printf("%s (%zux%zu, K=%zu): %zu launch(es), %.3f ms modelled, "
              "%.4f J\n",
              prof.program.c_str(), prof.m, prof.n, prof.k,
              prof.launches.size(), prof.total_seconds * 1e3,
              prof.total_energy.total());
  for (std::size_t i = 0; i < prof.launches.size(); ++i) {
    const profile::LaunchProfile& launch = prof.launches[i];
    const profile::EnergyAttribution& energy = prof.energies[i];
    std::printf("\n[%zu] %s  grid %dx%d, %d threads/block, %d blocks/SM\n",
                i, launch.launch.kernel_name.c_str(), launch.launch.grid_x,
                launch.launch.grid_y, launch.launch.block_threads,
                launch.launch.occupancy.blocks_per_sm);
    std::printf("    %.3f ms (%s-bound)  dram %llu txn  l2 %llu txn  "
                "energy %.4f J\n",
                launch.seconds * 1e3, launch.timing.bound.c_str(),
                static_cast<unsigned long long>(
                    launch.counters.dram_total_transactions()),
                static_cast<unsigned long long>(
                    launch.counters.l2_total_transactions()),
                energy.aggregate.total());
    for (const auto& slice : launch.phases) {
      const double share =
          launch.counters.warp_instructions > 0
              ? static_cast<double>(slice.counters.warp_instructions) /
                    static_cast<double>(launch.counters.warp_instructions)
              : 0.0;
      std::printf("    phase %-10s %5.1f%% instr  smem %8llu  l2 %8llu  "
                  "dram %8llu\n",
                  slice.phase.c_str(), 100.0 * share,
                  static_cast<unsigned long long>(
                      slice.counters.smem_total_transactions()),
                  static_cast<unsigned long long>(
                      slice.counters.l2_total_transactions()),
                  static_cast<unsigned long long>(
                      slice.counters.dram_total_transactions()));
    }

    // Top sites by attributed energy.
    std::vector<std::size_t> order(launch.sites.size());
    for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return energy.sites[a].total() > energy.sites[b].total();
    });
    const std::size_t shown = std::min(top_sites, order.size());
    for (std::size_t s = 0; s < shown; ++s) {
      const profile::SiteTraffic& traffic = launch.sites[order[s]];
      const profile::SiteEnergy& se = energy.sites[order[s]];
      const auto& site = registry.site(traffic.site);
      std::printf("    site  %-44s %.3e J  %llu sectors\n",
                  (site.location() + " " + site.label).c_str(), se.total(),
                  static_cast<unsigned long long>(traffic.global_sectors));
      if (verbose) {
        std::printf("          loads %llu stores %llu atomics %llu  smem "
                    "txn %llu\n",
                    static_cast<unsigned long long>(
                        traffic.global_load_requests),
                    static_cast<unsigned long long>(
                        traffic.global_store_requests),
                    static_cast<unsigned long long>(traffic.atomic_requests),
                    static_cast<unsigned long long>(
                        traffic.smem_transactions));
      }
    }
    if (energy.residual.total() > 0) {
      std::printf("    site  %-44s %.3e J\n", "<unattributed residual>",
                  energy.residual.total());
    }
  }
}

/// Runs one registered program on a fresh device with a profiler attached.
profile::ProgramProfile profile_program(
    const analysis::RegisteredProgram& program,
    const analysis::ProgramOptions& options,
    const config::profiles::DeviceProfile& dev) {
  gpusim::Device device(dev.device, analysis::registry_device_bytes());
  std::vector<profile::LaunchProfile> raw;
  {
    profile::LaunchProfiler profiler(device);
    program.run(device, options);
    raw = profiler.take_launches();
  }
  const auto shape = analysis::registry_shape();
  return profile::build_program_profile(program.name, shape.m, shape.n,
                                        shape.k, dev.device, dev.timing,
                                        dev.energy, std::move(raw), dev.name);
}

/// Self-check: never emit a record its schema validator would reject (a
/// record that fails is a bug here, an internal error).
profile::Json self_checked(profile::Json record,
                           void (*validate)(const profile::Json&)) {
  try {
    validate(record);
  } catch (const Error& e) {
    throw InternalError(std::string("emitted record failed validation: ") +
                        e.what());
  }
  return record;
}

/// The --batch path: profiles every named program concurrently (each worker
/// builds its own device/profiler) and merges the records in list order.
int run_batch_prof(const FlagParser& flags, int threads,
                   const analysis::ProgramOptions& options,
                   const config::profiles::DeviceProfile& dev,
                   const std::string& usage) {
  std::vector<const analysis::RegisteredProgram*> programs;
  const std::string list = flags.get_string("batch", "");
  if (list == "all") {
    for (const auto& program : analysis::registered_programs()) {
      programs.push_back(&program);
    }
  } else {
    std::size_t start = 0;
    while (start <= list.size()) {
      const std::size_t comma = list.find(',', start);
      const std::string name =
          list.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      if (!name.empty()) {
        const auto* program = analysis::find_program(name);
        if (program == nullptr) {
          throw Error("unknown program: " + name + " (try --list)");
        }
        programs.push_back(program);
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    KSUM_REQUIRE(!programs.empty(), "--batch names no programs\n" + usage);
  }

  exec::ThreadPool pool(threads);
  const std::vector<profile::Json> records =
      exec::map_ordered(pool, programs.size(), [&](std::size_t index) {
        return self_checked(
            profile::profile_to_json(profile_program(*programs[index],
                                                     options, dev)),
            profile::validate_profile_json);
      });

  // Inner records stay timestamp-free so the merged document is a pure
  // function of (program list, layout) — byte-identical across --threads.
  const profile::Json merged =
      self_checked(profile::batch_profiles_to_json(records),
                   profile::validate_profile_batch_json);

  if (tools::emit_json(flags, merged, "ksum-prof", "batch record")) return 0;
  std::printf("batch of %zu program(s)\n", records.size());
  for (const profile::Json& record : records) {
    const profile::Json& totals = record.at("totals");
    std::printf("  %-26s %2zu launch(es)  %8.3f ms  %.4f J\n",
                record.at("program").as_string().c_str(),
                record.at("launches").size(),
                totals.at("seconds").as_double() * 1e3,
                totals.at("energy_j").at("total").as_double());
  }
  const profile::Json& totals = merged.at("totals");
  std::printf("totals: %.3f ms modelled, %.4f J\n",
              totals.at("seconds").as_double() * 1e3,
              totals.at("energy_j_total").as_double());
  return 0;
}

/// The --shards path: profiles the sharded fused kernel-summation pipeline
/// at a fixed 1024×1024, K=16 problem. Each shard of the plan runs its
/// slice on its own fresh device with a profiler attached — the same kernel
/// stream the shard runner executes (its warm devices reset() away attached
/// observers, which is why this mode builds per-shard fresh devices), with
/// N-axis shards running the staged reduction the merge contract requires.
/// The per-shard ksum-prof-v1 records merge into one ksum-prof-shard-v1
/// document (profile/profile_json.h), validated before it is written.
int run_shard_prof(const FlagParser& flags, const pipelines::RunOptions& run,
                   const config::profiles::DeviceProfile& dev) {
  // Fixed shape: 8 CTA-aligned blocks on either axis, so splits up to 8-way
  // are exercisable on both. The record stays a pure function of
  // (count, axis, layout).
  workload::ProblemSpec spec;
  spec.m = 1024;
  spec.n = 1024;
  spec.k = 16;
  spec.bandwidth = 0.8f;
  spec.seed = 7;
  const workload::Instance instance = workload::make_instance(spec);
  const core::KernelParams params = core::params_from_spec(spec);

  const shard::ShardPlan plan = shard::plan_shards(
      spec.m, spec.n, spec.k, run, pipelines::Solution::kFused);

  const auto& device_spec = dev.device;
  std::vector<profile::ShardProfileEntry> entries;
  entries.reserve(plan.count());
  for (std::size_t i = 0; i < plan.count(); ++i) {
    const workload::Instance slice =
        shard::slice_instance(instance, plan.axis, plan.ranges[i]);
    gpusim::Device device(device_spec, plan.arena_bytes);
    std::vector<profile::LaunchProfile> raw;
    {
      profile::LaunchProfiler profiler(device);
      gpukernels::Workspace ws = gpukernels::allocate_workspace(
          device, slice.spec.m, slice.spec.n, slice.spec.k,
          /*with_intermediate=*/false);
      gpukernels::upload_instance(device, ws, slice);
      gpukernels::run_norms_a(device, ws);
      gpukernels::run_norms_b(device, ws);
      gpukernels::FusedOptions fopts;
      fopts.mainloop.layout = run.mainloop.layout;
      // N-axis shards run the staged (non-atomic) reduction — the merge
      // replays its fold — so their profile shows the real kernel stream,
      // second reduction pass included.
      fopts.atomic_reduction = plan.axis != shard::ShardAxis::kN;
      gpukernels::run_fused_ksum(device, ws, params, fopts);
      raw = profiler.take_launches();
    }
    const profile::ProgramProfile prof = profile::build_program_profile(
        "fused_ksum", slice.spec.m, slice.spec.n, slice.spec.k, device_spec,
        dev.timing, dev.energy, std::move(raw), dev.name);
    profile::ShardProfileEntry entry;
    entry.index = i;
    entry.begin = plan.ranges[i].begin;
    entry.end = plan.ranges[i].end;
    entry.profile = profile::profile_to_json(prof);
    entries.push_back(std::move(entry));
  }

  const profile::Json record =
      self_checked(profile::shard_profiles_to_json(shard::to_string(plan.axis),
                                                   spec.m, spec.n, spec.k,
                                                   entries),
                   profile::validate_profile_shard_json);

  if (tools::emit_json(flags, record, "ksum-prof", "shard record")) return 0;
  std::printf("sharded fused pipeline %zux%zu K=%zu, axis=%s, %zu "
              "shard(s), %s layout\n",
              spec.m, spec.n, spec.k, shard::to_string(plan.axis).c_str(),
              plan.count(),
              run.mainloop.layout == gpukernels::TileLayout::kNaive
                  ? "naive"
                  : "fig5");
  for (const profile::ShardProfileEntry& entry : entries) {
    const profile::Json& totals = entry.profile.at("totals");
    std::printf("  shard %zu [%4zu, %4zu)  %zu launch(es)  %8.3f ms  "
                "%.4f J\n",
                entry.index, entry.begin, entry.end,
                entry.profile.at("launches").size(),
                totals.at("seconds").as_double() * 1e3,
                totals.at("energy_j").at("total").as_double());
  }
  const profile::Json& totals = record.at("totals");
  std::printf("totals: %.3f ms modelled (max over shards), %.4f J\n",
              totals.at("seconds").as_double() * 1e3,
              totals.at("energy_j_total").as_double());
  return 0;
}

/// The --tree-eps path: builds the treecode interaction plan (docs/
/// TREECODE.md) at a fixed far-field-friendly shape (512×2048, K=2,
/// h=0.05) and prices both sides of the near/far split against the active
/// device profile — no solve runs; the record is a pure function of
/// (eps, leaf sizes, profile). Emitted as a ksum-prof-tree-v1 document
/// (profile/profile_json.h).
int run_tree_prof(const FlagParser& flags, const pipelines::RunOptions& run,
                  const config::profiles::DeviceProfile& dev) {
  const double eps = run.tree.eps;
  KSUM_REQUIRE(eps > 0.0,
               "--tree-eps must be positive, got " + std::to_string(eps));

  // Fixed far-field-friendly shape: low K and a bandwidth far below the
  // box diameter, so the plan has a real near/far mix to price.
  workload::ProblemSpec spec;
  spec.m = 512;
  spec.n = 2048;
  spec.k = 2;
  spec.bandwidth = 0.05f;
  spec.seed = 7;
  const workload::Instance instance = workload::make_instance(spec);
  const core::KernelParams params = core::params_from_spec(spec);

  const tree::TreePlan plan = tree::build_plan(instance, params, run.tree);

  // Both sides priced as ksum-cli --tree=auto prices a default (fig5) solve
  // on this device; --layout shapes the program modes only.
  pipelines::RunOptions dense_run = run;
  dense_run.mainloop.layout = gpukernels::TileLayout::kFig5;
  const analytic::DenseCost dense(dense_run);
  const double dense_seconds = dense.dense_seconds(spec.m, spec.n, spec.k);
  const double tree_seconds =
      tree::tree_seconds_estimate(plan, spec.k, dense, dev.device);
  const double total_interactions =
      static_cast<double>(spec.m) * static_cast<double>(spec.n);

  const profile::Json record = self_checked(
      profile::tree_profile_to_json({.m = spec.m,
                                     .n = spec.n,
                                     .k = spec.k,
                                     .eps = eps,
                                     .device_name = dev.name,
                                     .row_clusters = plan.rows.size(),
                                     .boxes = plan.boxes.size(),
                                     .near_pairs = plan.near_pairs,
                                     .far0_pairs = plan.far0_pairs,
                                     .far1_pairs = plan.far1_pairs,
                                     .near_interactions =
                                         plan.near_interactions,
                                     .budget = plan.budget,
                                     .bound_total = plan.bound_total,
                                     .dense_seconds = dense_seconds,
                                     .tree_seconds = tree_seconds}),
      profile::validate_profile_tree_json);

  if (tools::emit_json(flags, record, "ksum-prof", "tree record")) return 0;
  std::printf("treecode plan %zux%zu K=%zu, eps=%g, %s profile\n", spec.m,
              spec.n, spec.k, eps, dev.name.c_str());
  std::printf("  %zu row cluster(s) x %zu box(es): %zu near, %zu far "
              "order-0, %zu far order-1\n",
              plan.rows.size(), plan.boxes.size(), plan.near_pairs,
              plan.far0_pairs, plan.far1_pairs);
  std::printf("  near fraction %.1f%% of %zux%zu interactions, analytic "
              "bound %.3e (budget %.3e per unit weight)\n",
              100.0 * plan.near_interactions / total_interactions, spec.m,
              spec.n, plan.bound_total, plan.budget);
  std::printf("  modelled: dense %.3f ms, tree %.3f ms (%.2fx)\n",
              dense_seconds * 1e3, tree_seconds * 1e3,
              dense_seconds / tree_seconds);
  return 0;
}

int cmd_prof(int argc, const char* const* argv) {
  FlagParser flags;
  tools::declare_device_flags(flags);
  flags.declare("json", "print the ksum-prof-v1 record to stdout", false);
  flags.declare("json-out", "write the ksum-prof-v1 record to a file");
  flags.declare("trace", "write a Chrome trace_event file");
  flags.declare("top-sites",
                "number of highest-energy sites to print (default 5)");
  flags.declare("list", "list profilable programs and exit", false);
  flags.declare("verbose", "per-site request breakdowns", false);
  flags.declare("batch",
                "profile a comma-separated program list (or \"all\") "
                "concurrently and merge the records in list order");
  flags.declare("threads", "worker threads for --batch (default 1)");
  flags.declare("shards",
                "profile the sharded fused pipeline with N shards, one "
                "fresh device per shard, merged into a ksum-prof-shard-v1 "
                "record");
  flags.declare("shard-axis",
                "axis for --shards: m | n | auto (planner picks)");
  flags.declare("tree-eps",
                "profile the treecode interaction plan at error budget EPS "
                "and emit a ksum-prof-tree-v1 record (docs/TREECODE.md)");
  flags.declare("tree-box-leaf",
                "source points per tree box for --tree-eps (default 64)");
  flags.declare("tree-row-leaf",
                "rows per cluster for --tree-eps (default 64)");
  const std::string title =
      "usage: ksum-prof <program> [flags]\n"
      "       ksum-prof --batch=<p1,p2,...|all> [--threads=N]\n"
      "       ksum-prof --list";
  if (tools::parse_or_help(flags, argc, argv, 1, title)) return 0;
  const std::string usage = title + "\n" + flags.usage();
  if (flags.get_bool("list")) {
    KSUM_REQUIRE(flags.positional().empty(),
                 "--list takes no program argument\n" + usage);
    for (const auto& program : analysis::registered_programs()) {
      std::printf("%-26s %s\n", program.name.c_str(),
                  program.description.c_str());
    }
    return 0;
  }

  // --threads is range-checked before any other validation so
  // `--threads=0` is always the usage error the contract promises.
  const int threads = tools::threads_from_flags(flags);
  const auto device = tools::device_from_flags(flags);
  pipelines::RunOptions run = device.run_options();
  tools::shards_from_flags(flags, pipelines::Backend::kSimFused, run,
                           /*max_shards=*/64);
  run.tree.box_leaf = 64;
  run.tree.row_leaf = 64;
  tools::tree_from_flags(flags, run);
  tools::check_json_flags(flags, usage);
  // --tree-eps, --shards and --batch are separate modes, and none of them
  // profiles a single program.
  const bool tree_mode = flags.has("tree-eps");
  const bool shard_mode = flags.has("shards");
  const bool batch_mode = flags.has("batch");
  if (tree_mode || shard_mode || batch_mode) {
    KSUM_REQUIRE(tree_mode + shard_mode + batch_mode == 1,
                 "conflicting flags: --tree-eps, --shards and --batch are "
                 "separate modes");
    KSUM_REQUIRE(flags.positional().empty(),
                 std::string(tree_mode    ? "--tree-eps"
                             : shard_mode ? "--shards"
                                          : "--batch") +
                     " takes no positional program\n" + usage);
    KSUM_REQUIRE(!flags.has("trace"),
                 "conflicting flags: --trace profiles a single program");
    KSUM_REQUIRE(batch_mode || !flags.has("top-sites"),
                 "conflicting flags: --top-sites shapes the single-program "
                 "human report");
  }
  if (tree_mode) return run_tree_prof(flags, run, device.profile);
  if (shard_mode) return run_shard_prof(flags, run, device.profile);
  analysis::ProgramOptions options;
  options.layout = device.layout;
  if (batch_mode) {
    return run_batch_prof(flags, threads, options, device.profile, usage);
  }

  KSUM_REQUIRE(flags.positional().size() == 1,
               "expected exactly one program name\n" + usage);
  KSUM_REQUIRE(!(flags.get_bool("json") && flags.has("top-sites")),
               "conflicting flags: --top-sites shapes the human report, "
               "which --json suppresses\n" + usage);
  const long long top_sites_arg = flags.get_int("top-sites", 5);
  KSUM_REQUIRE(top_sites_arg >= 1 && top_sites_arg <= 1000,
               "--top-sites must be in [1, 1000]");

  const std::string name = flags.positional()[0];
  const auto* program = analysis::find_program(name);
  if (program == nullptr) {
    throw Error("unknown program: " + name + " (try --list)");
  }
  const profile::ProgramProfile prof =
      profile_program(*program, options, device.profile);
  const profile::Json record =
      self_checked(profile::profile_to_json(prof, iso_timestamp()),
                   profile::validate_profile_json);

  if (flags.has("trace")) {
    const std::string path = flags.get_string("trace", "");
    KSUM_REQUIRE(!path.empty(), "--trace needs a file path");
    profile::write_file(path, profile::trace_events_json(prof).dump());
    std::fprintf(stderr, "ksum-prof: wrote trace to %s\n", path.c_str());
  }
  if (!tools::emit_json(flags, record, "ksum-prof", "record")) {
    print_human_report(prof, static_cast<std::size_t>(top_sites_arg),
                       flags.get_bool("verbose"));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_main("ksum-prof", [&] { return cmd_prof(argc, argv); });
}
