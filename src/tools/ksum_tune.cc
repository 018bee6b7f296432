// ksum-tune — the tile-geometry autotuner CLI.
//
//   ksum-tune list  [--json] [--profile=P]   # the candidate grid
//   ksum-tune prune [--json] [--profile=P]   # grid + rejection reasons
//   ksum-tune best  --m=8192 --n=8192 --k=8 [--solution=fused]
//                   [--profile=P] [--threads=4] [--cache=FILE] [--json]
//   ksum-tune sweep [--fast] [--threads=4] [--cache=FILE] [--json]
//
// `best` runs the enumerate → prune → price → pick pass for one shape;
// `sweep` tunes the paper's operating shapes (M=N ∈ {4096, 8192, 16384},
// K ∈ {8, 250}). --profile selects the device (a built-in name or a
// ksum-device-profile-v1 file). --cache=FILE reads an
// existing ksum-tune-cache-v2 file, cross-checks any hit against the fresh
// tune, records every winner under the active profile, and writes it back.
// --json emits a ksum-tune-v1 record (validated against the executable
// schema before printing); all JSON is a pure function of the flags,
// byte-identical across runs and thread counts.
//
// Exit codes: 0 ok, 2 invalid input or usage, 3 internal error.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/table.h"
#include "tools/tool_flags.h"
#include "tune/tune_json.h"
#include "tune/tuning_cache.h"

namespace {

using namespace ksum;

std::string reasons_cell(const std::vector<std::string>& reasons) {
  if (reasons.empty()) return "";
  // The first violation is the headline; the count keeps the table narrow.
  if (reasons.size() == 1) return reasons.front();
  return reasons.front() + str_format(" (+%zu more)", reasons.size() - 1);
}

Table grid_table(const std::vector<tune::CandidateVerdict>& grid,
                 bool with_reasons) {
  Table t(with_reasons ? "Tile-geometry candidates — pruning verdicts"
                       : "Tile-geometry candidates");
  std::vector<std::string> header = {"geometry", "threads", "regs/thr",
                                     "smem",     "CTAs/SM", "limiter",
                                     "viable"};
  if (with_reasons) header.push_back("reason");
  t.header(header);
  for (const auto& v : grid) {
    std::vector<std::string> row = {
        v.geometry.to_string(),
        str_format("%d", v.geometry.threads()),
        v.regs_per_thread > 0 ? str_format("%d", v.regs_per_thread) : "-",
        v.smem_bytes > 0 ? str_format("%.1fKB", v.smem_bytes / 1024.0) : "-",
        v.blocks_per_sm > 0 ? str_format("%d", v.blocks_per_sm) : "-",
        v.limiter.empty() ? "-" : v.limiter,
        v.viable ? "yes" : "no"};
    if (with_reasons) row.push_back(reasons_cell(v.reasons));
    t.row(row);
  }
  return t;
}

int cmd_grid(const std::string& command, int argc, const char* const* argv) {
  FlagParser flags;
  tools::declare_device_flags(flags);
  flags.declare("json", "emit a ksum-tune-v1 record", false);
  if (tools::parse_or_help(
          flags, argc, argv, 2,
          "ksum-tune " + command + " — vet the tile-geometry candidate grid",
          command)) {
    return 0;
  }

  const auto device = tools::device_from_flags(flags);
  const auto grid =
      tune::evaluate_candidates(device.profile.device, device.layout);
  if (flags.get_bool("json")) {
    std::printf("%s\n", tune::tune_grid_record(command, grid).dump().c_str());
    return 0;
  }
  grid_table(grid, command == "prune").print(std::cout);
  std::size_t viable = 0;
  for (const auto& v : grid) viable += v.viable ? 1u : 0u;
  std::printf("%zu candidate(s), %zu viable\n", grid.size(), viable);
  return 0;
}

Table tune_table(const std::vector<tune::TuneReport>& tunes) {
  Table t("Tile-geometry autotuning");
  t.header({"shape", "backend", "best", "modelled time"});
  for (const auto& r : tunes) {
    t.row({str_format("%zux%zu K=%zu", r.request.m, r.request.n,
                      r.request.k),
           pipelines::to_string(r.request.backend), r.best.to_string(),
           str_format("%.3f ms", r.best_scaled_seconds * 1e3)});
  }
  return t;
}

/// Runs the tuner for every requested shape, memoizing through --cache when
/// given, and prints the table or the validated JSON record.
int run_tunes(const std::string& command, const FlagParser& flags,
              const std::vector<tune::TuneRequest>& requests) {
  const int threads = tools::threads_from_flags(flags);
  const auto device = tools::device_from_flags(flags);
  auto options = tune::options_for(device.run_options(), device.profile.name);
  options.threads = threads;
  const std::string cache_path = flags.get_string("cache", "");
  tune::TuningCache cache;
  if (!cache_path.empty()) {
    std::ifstream probe(cache_path);
    if (probe.good()) cache.load(cache_path);
  }

  std::vector<tune::TuneReport> tunes;
  for (const auto& request : requests) {
    const auto solution = pipelines::solution_of(request.backend);
    const auto hit = cache.find(request.m, request.n, request.k, solution,
                                options.profile);
    const auto report = tune::tune(request, options);
    if (hit.has_value()) {
      KSUM_CHECK_MSG(hit->geometry == report.best,
                     "tuning cache disagrees with a fresh tune for " +
                         report.best.to_string());
    }
    tune::TuningCache::Entry entry;
    entry.geometry = report.best;
    entry.scaled_seconds = report.best_scaled_seconds;
    cache.insert(request.m, request.n, request.k, solution, entry,
                 options.profile);
    tunes.push_back(report);
  }
  if (!cache_path.empty()) cache.save(cache_path);

  if (flags.get_bool("json")) {
    std::printf("%s\n", tune::tune_record(command, tunes).dump().c_str());
    return 0;
  }
  tune_table(tunes).print(std::cout);
  return 0;
}

void declare_tune_flags(FlagParser& flags) {
  tools::declare_device_flags(flags);
  flags.declare("solution", "fused | cuda-unfused | cublas-unfused")
      .declare("threads", "worker threads for the candidate fan-out")
      .declare("cache", "tuning-cache file to read/update (ksum-tune-cache-v2)")
      .declare("json", "emit a ksum-tune-v1 record", false);
}

int cmd_best(int argc, const char* const* argv) {
  FlagParser flags;
  declare_tune_flags(flags);
  flags.declare("m", "source point count")
      .declare("n", "target point count")
      .declare("k", "geometric dimension");
  if (tools::parse_or_help(flags, argc, argv, 2,
                           "ksum-tune best — tune one problem shape", "best")) {
    return 0;
  }

  tune::TuneRequest request;
  request.m = flags.get_size("m", 8192);
  request.n = flags.get_size("n", 8192);
  request.k = flags.get_size("k", 8);
  request.backend =
      tools::solution_from_flags(flags, /*simulated_only=*/true);
  return run_tunes("best", flags, {request});
}

int cmd_sweep(int argc, const char* const* argv) {
  FlagParser flags;
  declare_tune_flags(flags);
  flags.declare("fast", "tune only the smallest paper shape", false);
  if (tools::parse_or_help(
          flags, argc, argv, 2,
          "ksum-tune sweep — tune the paper's operating shapes", "sweep")) {
    return 0;
  }

  const auto backend =
      tools::solution_from_flags(flags, /*simulated_only=*/true);
  std::vector<tune::TuneRequest> requests;
  const std::size_t ms_full[] = {4096, 8192, 16384};
  const std::size_t ms_fast[] = {4096};
  const auto& ms = flags.get_bool("fast")
                       ? std::vector<std::size_t>(std::begin(ms_fast),
                                                  std::end(ms_fast))
                       : std::vector<std::size_t>(std::begin(ms_full),
                                                  std::end(ms_full));
  for (const std::size_t m : ms) {
    for (const std::size_t k : {std::size_t{8}, std::size_t{250}}) {
      tune::TuneRequest request;
      request.m = m;
      request.n = m;
      request.k = k;
      request.backend = backend;
      requests.push_back(request);
    }
  }
  return run_tunes("sweep", flags, requests);
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_main("ksum-tune", [&] {
    const std::string cmd = argc < 2 ? "" : argv[1];
    if (cmd == "list" || cmd == "prune") return cmd_grid(cmd, argc, argv);
    if (cmd == "best") return cmd_best(argc, argv);
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    std::fputs("usage: ksum-tune <list|prune|best|sweep> [flags]\n"
               "       ksum-tune <subcommand> --help\n"
               "exit codes: 0 ok, 2 invalid input, 3 internal error\n",
               stderr);
    return 2;
  });
}
