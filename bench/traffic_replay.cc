// Traffic replay for the ksum-serve daemon (docs/SERVING.md).
//
// Three phases against an in-process serve::Server:
//
//   1. Admission — a paused-worker burst twice the queue capacity must shed
//      exactly burst−capacity requests with `overloaded` (load-shedding is
//      deterministic, not racy).
//   2. Deterministic replay — a seeded mixed trace (five shapes, injected
//      faults, hopeless deadlines, malformed lines) replayed with 1 worker
//      and with many must produce byte-identical sorted reply sets and the
//      same counters; the many-worker run's ksum-serve-v1 record is written
//      as BENCH_traffic_replay.json. Its modelled percentiles are a pure
//      function of the trace, so bench_compare.py gates p50/p99; the wall
//      summary rides along unguarded.
//   3. Open-loop arrival — the same request mix fed at a fixed arrival
//      interval (timers, not backpressure) for an operator-facing wall
//      latency table. Real clock, machine-dependent, never gated.
//
// Environment: KSUM_BENCH_FAST=1 shrinks the trace; KSUM_CSV_DIR mirrors
// tables; KSUM_BENCH_JSON_DIR places the JSON record; KSUM_BENCH_THREADS
// sets the many-worker count (default: hardware concurrency).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/string_util.h"
#include "exec/thread_pool.h"
#include "serve/server.h"
#include "serve/stats.h"

namespace {

using namespace ksum;

// The seeded request mix. Index-derived, so every replay (and every worker
// count) sees the identical byte stream.
std::vector<std::string> make_trace(std::size_t count) {
  static const struct {
    std::size_t m, n, k;
  } kShapes[] = {
      {128, 128, 8}, {256, 128, 8}, {100, 90, 8}, {128, 256, 16},
      {256, 256, 8},
  };
  std::vector<std::string> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 53 == 7) {
      trace.push_back("malformed request #" + std::to_string(i));
      continue;
    }
    const auto& shape = kShapes[i % (sizeof(kShapes) / sizeof(kShapes[0]))];
    std::string line = "{\"op\":\"solve\",\"id\":\"r" + std::to_string(i) +
                       "\",\"m\":" + std::to_string(shape.m) +
                       ",\"n\":" + std::to_string(shape.n) +
                       ",\"k\":" + std::to_string(shape.k);
    if (i % 4 == 0) {
      line += ",\"fault_rate\":" + str_format("%g", 0.01 * double(1 + i % 3)) +
              ",\"fault_seed\":" + std::to_string(1000 + i);
    }
    if (i % 37 == 5) line += ",\"deadline_ms\":0.000001";
    line += "}";
    trace.push_back(std::move(line));
  }
  return trace;
}

struct ReplayResult {
  std::vector<std::string> replies;  // sorted
  profile::Json record;
  std::uint64_t ok = 0, invalid = 0, timeout = 0, internal = 0;
  double wall_seconds = 0;
};

ReplayResult replay(const std::vector<std::string>& trace, int workers,
                    double arrival_ms) {
  auto lines = std::make_shared<std::vector<std::string>>();
  auto mutex = std::make_shared<std::mutex>();
  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = trace.size() + 1;  // replay never sheds
  options.max_attempts = 2;
  serve::Server server(options, [lines, mutex](const std::string& line) {
    std::lock_guard<std::mutex> lock(*mutex);
    lines->push_back(line);
  });

  const auto begin = std::chrono::steady_clock::now();
  server.start();
  for (const std::string& line : trace) {
    server.handle_line(line);
    if (arrival_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(arrival_ms));
    }
  }
  server.drain();

  ReplayResult result;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  result.replies = *lines;
  std::sort(result.replies.begin(), result.replies.end());
  result.record = server.stats_json();
  result.ok = server.stats().by_status(StatusCode::kOk);
  result.invalid = server.stats().by_status(StatusCode::kInvalid);
  result.timeout = server.stats().by_status(StatusCode::kTimeout);
  result.internal = server.stats().by_status(StatusCode::kInternal);
  return result;
}

std::string latency_cell(const profile::Json& record, const char* which,
                         const char* key) {
  return str_format(
      "%.4f", record.at("latency_ms").at(which).at(key).as_double());
}

}  // namespace

int main() {
  const bool fast = std::getenv("KSUM_BENCH_FAST") != nullptr;
  const std::size_t trace_size = fast ? 48 : 200;
  const int many = std::max(2, exec::env_threads("KSUM_BENCH_THREADS"));
  bool pass = true;

  // ---- 1. Admission: deterministic shedding ------------------------------
  {
    constexpr std::size_t kCapacity = 8;
    const auto burst = make_trace(2 * kCapacity);
    std::size_t shed_replies = 0;
    serve::ServerOptions options;
    options.workers = 1;
    options.queue_capacity = kCapacity;
    serve::Server server(options, [&](const std::string& line) {
      if (line.find("\"overloaded\"") != std::string::npos) ++shed_replies;
    });
    // Workers are not started: the queue fills synchronously and the
    // overflow sheds before any solve completes.
    std::size_t solves = 0;
    for (const auto& line : burst) {
      if (line.find("malformed") == std::string::npos) ++solves;
      server.handle_line(line);
    }
    server.start();
    server.drain();
    const std::size_t expected = solves - kCapacity;
    std::printf("admission burst: %zu/%zu requests shed (expected %zu)\n",
                shed_replies, solves, expected);
    pass = pass && shed_replies == expected &&
           server.stats().by_status(StatusCode::kOverloaded) == expected;
  }

  // ---- 2. Deterministic replay across worker counts ----------------------
  const auto trace = make_trace(trace_size);
  const ReplayResult base = replay(trace, 1, 0);
  const ReplayResult wide = replay(trace, many, 0);

  Table table(str_format(
      "Traffic replay — %zu-request mixed trace (faults, deadlines, "
      "malformed lines)", trace_size));
  table.header({"workers", "ok", "invalid", "timeout", "internal",
                "modelled p50 ms", "modelled p99 ms", "wall p99 ms",
                "replay s"});
  for (const ReplayResult* r : {&base, &wide}) {
    table.row({str_format("%d", r == &base ? 1 : many),
               str_format("%llu", (unsigned long long)r->ok),
               str_format("%llu", (unsigned long long)r->invalid),
               str_format("%llu", (unsigned long long)r->timeout),
               str_format("%llu", (unsigned long long)r->internal),
               latency_cell(r->record, "modelled", "p50"),
               latency_cell(r->record, "modelled", "p99"),
               latency_cell(r->record, "wall", "p99"),
               str_format("%.2f", r->wall_seconds)});
  }
  bench::emit(table, "traffic_replay");

  const bool identical = base.replies == wide.replies;
  std::printf("reply sets 1 vs %d workers: %s\n", many,
              identical ? "byte-identical" : "DIVERGED");
  pass = pass && identical && base.internal == 0 && wide.internal == 0 &&
         base.replies.size() == trace.size();

  // ---- 3. Open-loop arrival ----------------------------------------------
  // Requests arrive on a timer rather than back-to-back; wall latency now
  // includes genuine queueing. Reported for operators, never gated.
  const std::size_t open_count = fast ? 16 : 64;
  const ReplayResult open_loop = replay(make_trace(open_count), 2, 2.0);
  Table open_table(str_format(
      "Traffic replay — open-loop arrival (%zu requests, 2 ms spacing, "
      "2 workers)", open_count));
  open_table.header({"wall p50 ms", "wall p90 ms", "wall p99 ms",
                     "wall max ms"});
  open_table.row({latency_cell(open_loop.record, "wall", "p50"),
                  latency_cell(open_loop.record, "wall", "p90"),
                  latency_cell(open_loop.record, "wall", "p99"),
                  latency_cell(open_loop.record, "wall", "max")});
  bench::emit(open_table, "traffic_replay_open_loop");

  // The gated artifact: the many-worker replay's ksum-serve-v1 record.
  const char* json_dir = std::getenv("KSUM_BENCH_JSON_DIR");
  const std::string path = std::string(json_dir != nullptr ? json_dir : ".") +
                           "/BENCH_traffic_replay.json";
  std::ofstream out(path);
  if (out) {
    out << wide.record.dump();
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::printf("cannot write %s\n", path.c_str());
    pass = false;
  }

  std::printf("traffic replay: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
