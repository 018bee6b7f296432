// ksum-serve — long-running kernel-summation request server.
//
//   ksum-serve --stdio  [options]             # serve stdin→stdout (tests)
//   ksum-serve --socket=/path/ksum.sock [options]
//
// Speaks newline-delimited JSON (docs/SERVING.md):
//   {"op":"solve","id":"r1","m":256,"n":128,"k":8,...}  →
//   {"id":"r1","status":"ok",...,"digest":"..."}
//
// Control plane: bounded admission (full queue → `overloaded` reply),
// per-request deadlines (`timeout`), serve-level retries with exponential
// backoff wired to the ABFT detection, degraded host fallback, graceful
// drain on SIGTERM/SIGINT (socket) or EOF (stdio). Every reply carries a
// status from the taxonomy ok | invalid | timeout | overloaded |
// fault_unrecovered | internal.
//
//   --stdio            serve stdin→stdout until EOF
//   --socket=PATH      serve an AF_UNIX stream socket until SIGTERM/SIGINT
//   --workers=N        worker loops / warm devices (default 2)
//   --queue=N          admission-queue capacity (default 16)
//   --deadline-ms=D    default per-request deadline (0 = none)
//   --max-attempts=N   serve-level solve attempts per request (default 3)
//   --backoff-ms=B     retry backoff base; attempt r sleeps B*2^(r-1)
//   --no-degrade       reply fault_unrecovered instead of degraded host
//                      fallback when every attempt stays flagged
//   --autotune         resolve tile geometries through a shared TuningCache
//   --max-m/--max-n/--max-k   admission bounds on request shapes
//   --max-shards=N     split a request oversized on one of M or N across up
//                      to N per-device shards instead of refusing it
//                      (default 1 = shed; docs/SHARDING.md)
//   --tree-eps=E       daemon-wide treecode error budget (docs/TREECODE.md);
//                      applies to fused fault-free requests, everything else
//                      runs the dense path unchanged
//   --profile=P        device profile the warm devices simulate: a built-in
//                      name (gtx970 | titanx-maxwell | modern) or a
//                      ksum-device-profile-v1 file (docs/PROFILES.md)
//   --stats-json=FILE  write the final ksum-serve-v1 record on exit
//
// Exit codes: 0 clean drain; 2 invalid usage (ksum::Error); 3 internal bug.
#include <cstdio>
#include <iostream>

#include "common/error.h"
#include "profile/record.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "tools/tool_flags.h"

namespace {

using namespace ksum;

int cmd_serve(int argc, const char* const* argv) {
  FlagParser flags;
  tools::declare_device_flags(flags, /*with_layout=*/false);
  flags.declare("stdio", "serve stdin→stdout until EOF", false)
      .declare("socket", "AF_UNIX socket path to listen on")
      .declare("workers", "worker loops / warm devices (default 2)")
      .declare("queue", "admission queue capacity (default 16)")
      .declare("deadline-ms",
               "default per-request deadline in ms (default 0 = none)")
      .declare("max-attempts",
               "serve-level solve attempts per request (default 3)")
      .declare("backoff-ms",
               "retry backoff base in ms; attempt r sleeps base*2^(r-1) "
               "(default 0)")
      .declare("no-degrade",
               "reply fault_unrecovered instead of falling back to the host "
               "path", false)
      .declare("autotune",
               "resolve tile geometries through a shared tuning cache",
               false)
      .declare("max-m", "admission bound on m (default 4096)")
      .declare("max-n", "admission bound on n (default 4096)")
      .declare("max-k", "admission bound on k (default 256)")
      .declare("max-shards",
               "split an oversized M or N across up to N per-device shards "
               "instead of refusing (default 1 = shed)")
      .declare("tree-eps",
               "daemon-wide treecode error budget for fused fault-free "
               "requests; other requests run dense (docs/TREECODE.md)")
      .declare("stats-json",
               "write the final ksum-serve-v1 record to FILE on exit");
  if (tools::parse_or_help(flags, argc, argv, 1,
                           "ksum-serve --stdio | --socket=PATH [options]",
                           "ksum-serve")) {
    return 0;
  }

  const bool stdio = flags.get_bool("stdio");
  const std::string socket_path = flags.get_string("socket", "");
  KSUM_REQUIRE(stdio || !socket_path.empty(),
               "pick a transport: --stdio or --socket=PATH");
  KSUM_REQUIRE(!(stdio && !socket_path.empty()),
               "conflicting flags: --stdio and --socket");

  serve::ServerOptions options;
  options.workers = int(flags.get_int("workers", 2));
  options.queue_capacity = flags.get_size("queue", 16);
  options.default_deadline_ms = flags.get_double("deadline-ms", 0);
  options.max_attempts = int(flags.get_int("max-attempts", 3));
  options.backoff_base_ms = flags.get_double("backoff-ms", 0);
  options.degrade_to_host = !flags.get_bool("no-degrade");
  options.autotune = flags.get_bool("autotune");
  options.max_m = flags.get_size("max-m", 4096);
  options.max_n = flags.get_size("max-n", 4096);
  options.max_k = flags.get_size("max-k", 256);
  options.max_shards = flags.get_size("max-shards", 1);
  KSUM_REQUIRE(options.max_shards >= 1, "--max-shards must be >= 1");
  const auto device = tools::device_from_flags(flags);
  options.run = device.run_options();
  tools::tree_from_flags(flags, options.run);
  options.profile = device.profile.name;

  profile::Json final_stats;
  if (stdio) {
    serve::Server server(options, [](const std::string& reply) {
      std::cout << reply << '\n' << std::flush;
    });
    serve::run_stdio(server, std::cin);
    final_stats = server.stats_json();
  } else {
    serve::install_signal_handlers();
    serve::ReplyHub hub;
    serve::Server server(options, [&hub](const std::string& reply) {
      hub.deliver(reply);
    });
    std::fprintf(stderr, "ksum-serve: listening on %s (%d workers)\n",
                 socket_path.c_str(), options.workers);
    serve::run_unix_socket(server, hub, socket_path);
    final_stats = server.stats_json();
  }

  const auto& counters = final_stats.at("counters");
  std::fprintf(stderr,
               "ksum-serve: drained after %.0f request(s): %.0f completed, "
               "%.0f ok, %.0f shed, %.0f retries, %.0f degraded\n",
               counters.at("received").as_double(),
               counters.at("completed").as_double(),
               counters.at("ok").as_double(),
               counters.at("shed").as_double(),
               counters.at("retries").as_double(),
               counters.at("degraded").as_double());

  const std::string stats_path = flags.get_string("stats-json", "");
  if (!stats_path.empty()) profile::write_file(stats_path, final_stats.dump());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_main("ksum-serve", [&] { return cmd_serve(argc, argv); });
}
