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
#include <fstream>
#include <string>

#include "analysis/program_registry.h"
#include "analytic/dense_cost.h"
#include "common/error.h"
#include "common/flags.h"
#include "config/device_spec.h"
#include "config/energy_spec.h"
#include "config/profiles/device_profile.h"
#include "config/timing_spec.h"
#include "core/exact.h"
#include "exec/batch_engine.h"
#include "exec/thread_pool.h"
#include "gpukernels/device_workspace.h"
#include "gpukernels/fused_ksum.h"
#include "gpukernels/norms.h"
#include "gpusim/access_site.h"
#include "pipelines/pipeline.h"
#include "profile/energy_attribution.h"
#include "profile/launch_profiler.h"
#include "profile/profile_json.h"
#include "profile/trace_export.h"
#include "shard/plan.h"
#include "shard/runner.h"
#include "tree/cost.h"
#include "tree/plan.h"
#include "workload/padding.h"
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

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open " + path + " for writing");
  out << text;
  KSUM_CHECK_MSG(static_cast<bool>(out), "write to " + path + " failed");
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

/// Runs one registered program on a fresh device with a profiler attached
/// and returns its finalized, schema-validated ksum-prof-v1 record (no
/// timestamp — callers add one only where determinism does not matter).
profile::Json profile_program_record(
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
  const profile::ProgramProfile prof = profile::build_program_profile(
      program.name, shape.m, shape.n, shape.k, dev.device, dev.timing,
      dev.energy, std::move(raw), dev.name);
  const profile::Json record = profile::profile_to_json(prof);
  try {
    profile::validate_profile_json(record);
  } catch (const Error& e) {
    throw InternalError(std::string("emitted record failed validation: ") +
                        e.what());
  }
  return record;
}

/// The --batch path: profiles every named program concurrently (each worker
/// builds its own device/profiler) and merges the records in list order.
int run_batch_prof(const FlagParser& flags,
                   const analysis::ProgramOptions& options,
                   const config::profiles::DeviceProfile& dev,
                   const std::string& usage) {
  KSUM_REQUIRE(flags.positional().empty(),
               "--batch takes no positional program\n" + usage);
  KSUM_REQUIRE(!flags.has("trace"),
               "conflicting flags: --trace profiles a single program");
  KSUM_REQUIRE(!(flags.get_bool("json") && flags.has("json-out")),
               "conflicting flags: use --json (stdout) or --json-out=FILE, "
               "not both\n" + usage);

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

  exec::ThreadPool pool(static_cast<int>(flags.get_int("threads", 1)));
  const std::vector<profile::Json> records =
      exec::map_ordered(pool, programs.size(), [&](std::size_t index) {
        return profile_program_record(*programs[index], options, dev);
      });

  // Inner records stay timestamp-free so the merged document is a pure
  // function of (program list, layout) — byte-identical across --threads.
  const profile::Json merged = profile::batch_profiles_to_json(records);
  try {
    profile::validate_profile_batch_json(merged);
  } catch (const Error& e) {
    throw InternalError(std::string("merged batch record failed "
                                    "validation: ") + e.what());
  }

  if (flags.has("json-out")) {
    const std::string path = flags.get_string("json-out", "");
    KSUM_REQUIRE(!path.empty(), "--json-out needs a file path");
    write_file(path, merged.dump());
    std::fprintf(stderr, "ksum-prof: wrote batch record to %s\n",
                 path.c_str());
  }
  if (flags.get_bool("json")) {
    std::printf("%s", merged.dump().c_str());
    return 0;
  }
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
int run_shard_prof(const FlagParser& flags, const std::string& layout_name,
                   const analysis::ProgramOptions& options,
                   const config::profiles::DeviceProfile& dev,
                   const std::string& usage) {
  KSUM_REQUIRE(flags.positional().empty(),
               "--shards takes no positional program (it profiles the "
               "sharded fused pipeline)\n" + usage);
  KSUM_REQUIRE(!flags.has("batch"),
               "conflicting flags: --shards and --batch are separate modes");
  KSUM_REQUIRE(!flags.has("trace"),
               "conflicting flags: --trace profiles a single program");
  KSUM_REQUIRE(!flags.has("top-sites"),
               "conflicting flags: --top-sites shapes the single-program "
               "human report");
  KSUM_REQUIRE(!(flags.get_bool("json") && flags.has("json-out")),
               "conflicting flags: use --json (stdout) or --json-out=FILE, "
               "not both\n" + usage);

  const long long count = flags.get_int("shards", 0);
  KSUM_REQUIRE(count >= 1 && count <= 64,
               "--shards must be in [1, 64], got " + std::to_string(count));
  const std::string axis_name = flags.get_string("shard-axis", "auto");
  shard::ShardAxis axis = shard::ShardAxis::kAuto;
  if (axis_name == "m") {
    axis = shard::ShardAxis::kM;
  } else if (axis_name == "n") {
    axis = shard::ShardAxis::kN;
  } else {
    KSUM_REQUIRE(axis_name == "auto",
                 "--shard-axis must be m, n or auto, got: " + axis_name);
  }

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

  pipelines::RunOptions run;
  run.device = dev.device;
  run.timing = dev.timing;
  run.energy = dev.energy;
  run.mainloop.layout = options.layout;
  run.shards.count = static_cast<std::size_t>(count);
  run.shards.axis = axis;
  const shard::ShardPlan plan = shard::plan_shards(
      spec.m, spec.n, spec.k, run, pipelines::Solution::kFused);

  const auto& device_spec = dev.device;
  const auto& geometry = run.mainloop.geometry;
  std::vector<profile::ShardProfileEntry> entries;
  entries.reserve(plan.count());
  for (std::size_t i = 0; i < plan.count(); ++i) {
    const workload::Instance slice =
        shard::slice_instance(instance, plan.axis, plan.ranges[i]);
    const std::size_t arena = pipelines::required_device_bytes(
        workload::round_up(slice.spec.m, 128),
        workload::round_up(slice.spec.n, 128),
        workload::round_up(slice.spec.k, 8),
        /*with_intermediate=*/false,
        static_cast<std::size_t>(geometry.tile_n));
    gpusim::Device device(device_spec, arena);
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
      fopts.mainloop.layout = options.layout;
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

  const profile::Json record = profile::shard_profiles_to_json(
      shard::to_string(plan.axis), spec.m, spec.n, spec.k, entries);
  try {
    profile::validate_profile_shard_json(record);
  } catch (const Error& e) {
    throw InternalError(std::string("emitted shard record failed "
                                    "validation: ") + e.what());
  }

  if (flags.has("json-out")) {
    const std::string path = flags.get_string("json-out", "");
    KSUM_REQUIRE(!path.empty(), "--json-out needs a file path");
    write_file(path, record.dump());
    std::fprintf(stderr, "ksum-prof: wrote shard record to %s\n",
                 path.c_str());
  }
  if (flags.get_bool("json")) {
    std::printf("%s", record.dump().c_str());
    return 0;
  }
  std::printf("sharded fused pipeline %zux%zu K=%zu, axis=%s, %zu "
              "shard(s), %s layout\n",
              spec.m, spec.n, spec.k, shard::to_string(plan.axis).c_str(),
              plan.count(), layout_name.c_str());
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
/// (eps, leaf sizes, profile). Emitted as a ksum-prof-tree-v1 document:
///
///   {"schema":"ksum-prof-tree-v1", "shape":{...}, "eps":E,
///    "device":{"name":...},
///    "plan":{"row_clusters","boxes","near_pairs","far0_pairs",
///            "far1_pairs","near_interactions","near_fraction",
///            "budget","bound_total"},
///    "model":{"dense_seconds","tree_seconds","speedup"}}
int run_tree_prof(const FlagParser& flags,
                  const config::profiles::DeviceProfile& dev,
                  const std::string& usage) {
  KSUM_REQUIRE(flags.positional().empty(),
               "--tree-eps takes no positional program (it profiles the "
               "treecode plan)\n" + usage);
  KSUM_REQUIRE(!flags.has("batch"),
               "conflicting flags: --tree-eps and --batch are separate "
               "modes");
  KSUM_REQUIRE(!flags.has("shards"),
               "conflicting flags: --tree-eps and --shards are separate "
               "modes");
  KSUM_REQUIRE(!flags.has("trace"),
               "conflicting flags: --trace profiles a single program");
  KSUM_REQUIRE(!flags.has("top-sites"),
               "conflicting flags: --top-sites shapes the single-program "
               "human report");
  KSUM_REQUIRE(!(flags.get_bool("json") && flags.has("json-out")),
               "conflicting flags: use --json (stdout) or --json-out=FILE, "
               "not both\n" + usage);

  const double eps = flags.get_double("tree-eps", 0.0);
  KSUM_REQUIRE(eps > 0.0,
               "--tree-eps must be positive, got " + std::to_string(eps));
  const long long box_leaf = flags.get_int("tree-box-leaf", 64);
  const long long row_leaf = flags.get_int("tree-row-leaf", 64);
  KSUM_REQUIRE(box_leaf >= 1 && row_leaf >= 1,
               "--tree-box-leaf and --tree-row-leaf must be positive");

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

  tree::TreeSpec tspec;
  tspec.eps = eps;
  tspec.box_leaf = static_cast<std::size_t>(box_leaf);
  tspec.row_leaf = static_cast<std::size_t>(row_leaf);
  const tree::TreePlan plan = tree::build_plan(instance, params, tspec);

  // Both sides priced exactly as ksum-cli --tree=auto prices them.
  pipelines::RunOptions run;
  run.device = dev.device;
  run.timing = dev.timing;
  run.energy = dev.energy;
  const analytic::DenseCost dense(run);
  const double dense_seconds = dense.dense_seconds(spec.m, spec.n, spec.k);
  const double tree_seconds =
      tree::tree_seconds_estimate(plan, spec.k, dense, dev.device);
  const double total_interactions =
      static_cast<double>(spec.m) * static_cast<double>(spec.n);

  profile::Json record = profile::Json::object();
  record.set("schema", "ksum-prof-tree-v1");
  record.set("shape", profile::Json::object()
                          .set("m", static_cast<std::uint64_t>(spec.m))
                          .set("n", static_cast<std::uint64_t>(spec.n))
                          .set("k", static_cast<std::uint64_t>(spec.k)));
  record.set("eps", eps);
  record.set("device", profile::Json::object().set("name", dev.name));
  record.set(
      "plan",
      profile::Json::object()
          .set("row_clusters",
               static_cast<std::uint64_t>(plan.rows.size()))
          .set("boxes", static_cast<std::uint64_t>(plan.boxes.size()))
          .set("near_pairs", static_cast<std::uint64_t>(plan.near_pairs))
          .set("far0_pairs", static_cast<std::uint64_t>(plan.far0_pairs))
          .set("far1_pairs", static_cast<std::uint64_t>(plan.far1_pairs))
          .set("near_interactions", plan.near_interactions)
          .set("near_fraction", plan.near_interactions / total_interactions)
          .set("budget", plan.budget)
          .set("bound_total", plan.bound_total));
  record.set("model", profile::Json::object()
                          .set("dense_seconds", dense_seconds)
                          .set("tree_seconds", tree_seconds)
                          .set("speedup", dense_seconds / tree_seconds));
  // Self-check mirroring the other modes: the record must carry the plan
  // invariant the docs promise (bound_total ≤ eps whenever a far pair
  // exists).
  if (plan.has_far_pair() && !(plan.bound_total <= eps)) {
    throw InternalError("emitted tree record violates bound_total <= eps");
  }

  if (flags.has("json-out")) {
    const std::string path = flags.get_string("json-out", "");
    KSUM_REQUIRE(!path.empty(), "--json-out needs a file path");
    write_file(path, record.dump());
    std::fprintf(stderr, "ksum-prof: wrote tree record to %s\n",
                 path.c_str());
  }
  if (flags.get_bool("json")) {
    std::printf("%s", record.dump().c_str());
    return 0;
  }
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
  flags.declare("layout", "shared-memory tile layout: fig5 (default), naive");
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
  flags.declare("profile",
                "device profile: gtx970 | titanx-maxwell | modern, or a "
                "ksum-device-profile-v1 JSON file");
  flags.declare("help", "show this help", false);
  flags.parse(argc, argv);

  const std::string usage =
      "usage: ksum-prof <program> [flags]\n"
      "       ksum-prof --batch=<p1,p2,...|all> [--threads=N]\n"
      "       ksum-prof --list\n" +
      flags.usage();
  if (flags.get_bool("help")) {
    std::printf("%s", usage.c_str());
    return 0;
  }
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
  const long long threads = flags.get_int("threads", 1);
  KSUM_REQUIRE(threads >= 1 && threads <= exec::ThreadPool::kMaxThreads,
               "--threads must be in [1, " +
                   std::to_string(exec::ThreadPool::kMaxThreads) + "], got " +
                   std::to_string(threads));
  KSUM_REQUIRE(!flags.has("threads") || flags.has("batch"),
               "conflicting flags: --threads drives --batch execution; give "
               "--batch too");

  analysis::ProgramOptions options;
  const std::string layout = flags.get_string("layout", "fig5");
  if (layout == "naive") {
    options.layout = gpukernels::TileLayout::kNaive;
  } else if (layout != "fig5") {
    throw Error("unknown --layout: " + layout);
  }

  const auto dev =
      config::profiles::resolve(flags.get_string("profile", "gtx970"));

  KSUM_REQUIRE(!flags.has("shard-axis") || flags.has("shards"),
               "conflicting flags: --shard-axis qualifies --shards; give "
               "--shards=N too");
  KSUM_REQUIRE((!flags.has("tree-box-leaf") && !flags.has("tree-row-leaf")) ||
                   flags.has("tree-eps"),
               "conflicting flags: --tree-box-leaf/--tree-row-leaf qualify "
               "--tree-eps; give --tree-eps=EPS too");
  if (flags.has("tree-eps")) {
    return run_tree_prof(flags, dev, usage);
  }
  if (flags.has("shards")) {
    return run_shard_prof(flags, layout, options, dev, usage);
  }
  if (flags.has("batch")) {
    return run_batch_prof(flags, options, dev, usage);
  }

  KSUM_REQUIRE(flags.positional().size() == 1,
               "expected exactly one program name\n" + usage);
  KSUM_REQUIRE(!(flags.get_bool("json") && flags.has("top-sites")),
               "conflicting flags: --top-sites shapes the human report, "
               "which --json suppresses\n" + usage);
  KSUM_REQUIRE(!(flags.get_bool("json") && flags.has("json-out")),
               "conflicting flags: use --json (stdout) or --json-out=FILE, "
               "not both\n" + usage);
  const long long top_sites_arg = flags.get_int("top-sites", 5);
  KSUM_REQUIRE(top_sites_arg >= 1 && top_sites_arg <= 1000,
               "--top-sites must be in [1, 1000]");

  const std::string name = flags.positional()[0];
  const auto* program = analysis::find_program(name);
  if (program == nullptr) {
    throw Error("unknown program: " + name + " (try --list)");
  }

  gpusim::Device device(dev.device, analysis::registry_device_bytes());
  std::vector<profile::LaunchProfile> raw;
  {
    profile::LaunchProfiler profiler(device);
    program->run(device, options);
    raw = profiler.take_launches();
  }
  const auto shape = analysis::registry_shape();
  const profile::ProgramProfile prof = profile::build_program_profile(
      name, shape.m, shape.n, shape.k, dev.device, dev.timing, dev.energy,
      std::move(raw), dev.name);

  const profile::Json record =
      profile::profile_to_json(prof, iso_timestamp());
  // Self-check: never emit a record the schema validator would reject.
  try {
    profile::validate_profile_json(record);
  } catch (const Error& e) {
    throw InternalError(std::string("emitted record failed validation: ") +
                        e.what());
  }

  if (flags.has("trace")) {
    const std::string path = flags.get_string("trace", "");
    KSUM_REQUIRE(!path.empty(), "--trace needs a file path");
    write_file(path, profile::trace_events_json(prof).dump());
    std::fprintf(stderr, "ksum-prof: wrote trace to %s\n", path.c_str());
  }
  if (flags.has("json-out")) {
    const std::string path = flags.get_string("json-out", "");
    KSUM_REQUIRE(!path.empty(), "--json-out needs a file path");
    write_file(path, record.dump());
    std::fprintf(stderr, "ksum-prof: wrote record to %s\n", path.c_str());
  }

  if (flags.get_bool("json")) {
    std::printf("%s", record.dump().c_str());
  } else {
    print_human_report(prof, static_cast<std::size_t>(top_sites_arg),
                       flags.get_bool("verbose"));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return cmd_prof(argc, argv);
  } catch (const ksum::InternalError& e) {
    std::fprintf(stderr, "ksum-prof: internal error: %s\n", e.what());
    return 3;
  } catch (const ksum::Error& e) {
    std::fprintf(stderr, "ksum-prof: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ksum-prof: %s\n", e.what());
    return 3;
  }
}
