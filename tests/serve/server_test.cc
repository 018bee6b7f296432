// Server control plane: admission, deadlines, shedding, degradation,
// warm-device reply identity, and the ksum-serve-v1 stats record.
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "profile/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "workload/point_generators.h"

namespace ksum {
namespace {

using profile::Json;

// Collects reply lines; the server serialises sink calls, the mutex makes
// reads from the test thread race-free too.
struct SinkLog {
  std::mutex mutex;
  std::vector<std::string> lines;

  void operator()(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }
};

struct Harness {
  serve::ServerOptions options;
  std::shared_ptr<SinkLog> log = std::make_shared<SinkLog>();
  std::unique_ptr<serve::Server> server;

  explicit Harness(serve::ServerOptions opts) : options(opts) {
    auto log_copy = log;
    server = std::make_unique<serve::Server>(
        options,
        [log_copy](const std::string& line) { (*log_copy)(line); });
  }
};

std::string solve_line(const std::string& id, std::size_t m, std::size_t n,
                       std::size_t k, const std::string& extra = "") {
  std::string line = "{\"op\":\"solve\",\"id\":\"";
  line += id;
  line += "\",\"m\":";
  line += std::to_string(m);
  line += ",\"n\":";
  line += std::to_string(n);
  line += ",\"k\":";
  line += std::to_string(k);
  line += extra;
  line += '}';
  return line;
}

// Finds the reply whose id matches; fails the test when absent.
Json reply_for(const std::vector<std::string>& lines, const std::string& id) {
  for (const auto& line : lines) {
    const Json doc = Json::parse(line);
    if (doc.has("id") && doc.at("id").is_string() &&
        doc.at("id").as_string() == id) {
      return doc;
    }
  }
  ADD_FAILURE() << "no reply for id " << id;
  return Json::object();
}

TEST(Server, SolveReplyMatchesSingleShotSolve) {
  serve::ServerOptions opts;
  opts.workers = 2;
  Harness h(opts);
  h.server->start();
  h.server->handle_line(solve_line("r1", 128, 128, 8, ",\"robust\":false"));
  h.server->drain();

  const auto lines = h.log->snapshot();
  ASSERT_EQ(lines.size(), 1u);
  const Json reply = reply_for(lines, "r1");
  EXPECT_EQ(reply.at("status").as_string(), "ok");

  // Single-shot oracle: the same request through the library directly.
  workload::ProblemSpec spec;
  spec.m = 128;
  spec.n = 128;
  spec.k = 8;
  const auto instance = workload::make_instance(spec);
  const auto result = pipelines::solve(
      instance, core::params_from_spec(spec), pipelines::Backend::kSimFused);
  EXPECT_EQ(reply.at("digest").as_string(),
            serve::digest_hex(result.v.span()));
  ASSERT_TRUE(result.report.has_value());
  EXPECT_EQ(reply.at("modelled_ms").as_double(),
            result.report->seconds * 1e3);
  EXPECT_FALSE(reply.at("degraded").as_bool());
  EXPECT_EQ(reply.at("serve_attempts").as_double(), 1);
}

TEST(Server, WarmDeviceRepliesAreByteIdentical) {
  serve::ServerOptions opts;
  opts.workers = 1;  // same worker serves both → second run is warm
  Harness h(opts);
  h.server->start();
  h.server->handle_line(solve_line("a", 128, 128, 8));
  h.server->handle_line(solve_line("b", 256, 128, 8));  // grows the device
  h.server->handle_line(solve_line("c", 128, 128, 8));  // warm re-run of "a"
  h.server->drain();

  const auto lines = h.log->snapshot();
  ASSERT_EQ(lines.size(), 3u);
  // Byte-identical apart from the echoed id: rewrite "a" → "c" and compare
  // the raw reply lines.
  std::string first = lines[0];
  const std::string needle = "\"id\":\"a\"";
  const std::size_t pos = first.find(needle);
  ASSERT_NE(pos, std::string::npos);
  first.replace(pos, needle.size(), "\"id\":\"c\"");
  EXPECT_EQ(first, lines[2]);
}

TEST(Server, HealthStatsAndTaxonomyAtIntake) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_m = 512;
  Harness h(opts);
  h.server->start();
  h.server->handle_line(R"({"op":"health","id":"h"})");
  h.server->handle_line("garbage");
  h.server->handle_line(solve_line("big", 4096, 128, 8));  // beyond max_m
  h.server->handle_line("");              // ignored
  h.server->handle_line("# a comment");   // ignored
  h.server->handle_line(R"({"op":"stats","id":"s"})");
  h.server->drain();

  const auto lines = h.log->snapshot();
  ASSERT_EQ(lines.size(), 4u);
  const Json health = reply_for(lines, "h");
  EXPECT_EQ(health.at("op").as_string(), "health");
  EXPECT_EQ(health.at("state").as_string(), "serving");
  EXPECT_EQ(health.at("workers").as_double(), 1);

  const Json bad = Json::parse(lines[1]);
  EXPECT_EQ(bad.at("status").as_string(), "invalid");
  EXPECT_EQ(bad.at("id").as_string(), "");

  const Json big = reply_for(lines, "big");
  EXPECT_EQ(big.at("status").as_string(), "invalid");

  const Json stats = reply_for(lines, "s");
  const Json& record = stats.at("stats");
  EXPECT_NO_THROW(serve::validate_serve_json(record));
  EXPECT_EQ(record.at("counters").at("invalid").as_double(), 2);
  EXPECT_EQ(record.at("counters").at("received").as_double(), 4);
}

TEST(Server, ArenaRefusalIsInvalidAtIntakeAndNextRequestServes) {
  // Bounds raised past what the profile's device arena holds: admission
  // refuses the shapes at intake — before any worker allocates — and the
  // daemon keeps serving.
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_m = std::size_t{1} << 33;
  opts.max_n = std::size_t{1} << 33;
  opts.max_k = std::size_t{1} << 31;
  Harness h(opts);
  h.server->start();
  h.server->handle_line(solve_line("square", std::size_t{1} << 32,
                                   std::size_t{1} << 32, 8,
                                   R"(,"robust":false)"));
  h.server->handle_line(solve_line("deep", 3000000000, 2, 2000000000));
  h.server->handle_line(solve_line("next", 128, 128, 8, R"(,"verify":true)"));
  h.server->drain();

  const auto lines = h.log->snapshot();
  ASSERT_EQ(lines.size(), 3u);
  const Json square = reply_for(lines, "square");
  EXPECT_EQ(square.at("status").as_string(), "invalid");
  EXPECT_NE(square.at("error").as_string().find("--shards=auto"),
            std::string::npos);
  EXPECT_EQ(reply_for(lines, "deep").at("status").as_string(), "invalid");
  const Json next = reply_for(lines, "next");
  EXPECT_EQ(next.at("status").as_string(), "ok");
  EXPECT_TRUE(next.at("verified").as_bool());
  EXPECT_EQ(h.server->stats_json().at("counters").at("invalid").as_double(),
            2);
}

TEST(Server, InvalidRequestEchoesItsParsedId) {
  // Correlation is by id (docs/SERVING.md): a request refused after its id
  // parsed keeps that id on the `invalid` reply; only a line whose id never
  // parsed gets "".
  serve::ServerOptions opts;
  opts.workers = 1;
  Harness h(opts);
  h.server->start();
  h.server->handle_line(R"({"op":"solve","id":"r7","m":0,"n":8,"k":8})");
  h.server->handle_line(R"({"op":"solve","id":8,"m":8,"n":8,"k":8.5})");
  h.server->handle_line(R"({"op":"solve","id":{},"m":8,"n":8,"k":8})");
  h.server->drain();

  const auto lines = h.log->snapshot();
  ASSERT_EQ(lines.size(), 3u);
  const Json r7 = Json::parse(lines[0]);
  EXPECT_EQ(r7.at("id").as_string(), "r7");
  EXPECT_EQ(r7.at("status").as_string(), "invalid");
  EXPECT_NE(r7.at("error").as_string().find(
                "serve: m: must be an integer in [1, "),
            std::string::npos)
      << lines[0];
  const Json numeric = Json::parse(lines[1]);
  EXPECT_EQ(numeric.at("id").as_string(), "8");
  EXPECT_EQ(numeric.at("status").as_string(), "invalid");
  const Json unreadable = Json::parse(lines[2]);
  EXPECT_EQ(unreadable.at("id").as_string(), "");
  EXPECT_EQ(unreadable.at("status").as_string(), "invalid");
}

TEST(Server, TinyDeadlineTimesOutWithoutOutput) {
  serve::ServerOptions opts;
  opts.workers = 1;
  Harness h(opts);
  h.server->start();
  h.server->handle_line(
      solve_line("t", 128, 128, 8, ",\"deadline_ms\":0.000001"));
  h.server->drain();

  const auto lines = h.log->snapshot();
  ASSERT_EQ(lines.size(), 1u);
  const Json reply = reply_for(lines, "t");
  EXPECT_EQ(reply.at("status").as_string(), "timeout");
  EXPECT_FALSE(reply.has("digest"));  // a cancelled request has no output
  EXPECT_EQ(h.server->stats().by_status(StatusCode::kTimeout), 1u);
}

TEST(Server, PausedBurstShedsDeterministically) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  Harness h(opts);
  // No start() yet: the queue fills synchronously, so exactly
  // burst - capacity requests shed, regardless of machine speed.
  for (int i = 0; i < 5; ++i) {
    std::string id = "q";
    id += std::to_string(i);
    h.server->handle_line(solve_line(id, 128, 128, 8));
  }
  EXPECT_EQ(h.log->snapshot().size(), 3u);  // 3 overloaded replies already
  for (const auto& line : h.log->snapshot()) {
    EXPECT_EQ(Json::parse(line).at("status").as_string(), "overloaded");
  }
  EXPECT_EQ(h.server->stats().by_status(StatusCode::kOverloaded), 3u);

  h.server->start();
  h.server->drain();
  EXPECT_EQ(h.log->snapshot().size(), 5u);
  EXPECT_EQ(h.server->stats().by_status(StatusCode::kOk), 2u);

  // After drain, new solves are refused as overloaded (draining), but
  // health still answers and reports the draining state.
  h.server->handle_line(solve_line("late", 128, 128, 8));
  h.server->handle_line(R"({"op":"health","id":"h2"})");
  const auto lines = h.log->snapshot();
  EXPECT_EQ(reply_for(lines, "late").at("status").as_string(), "overloaded");
  EXPECT_EQ(reply_for(lines, "h2").at("state").as_string(), "draining");
}

TEST(Server, UnrecoverableFaultsDegradeToHostByDefault) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_attempts = 2;
  Harness h(opts);
  h.server->start();
  // fault_rate=0.5 with this seed keeps every attempt flagged (verified
  // deterministic), so the request lands in the degraded host path.
  h.server->handle_line(solve_line(
      "d", 128, 128, 8, ",\"fault_rate\":0.5,\"fault_seed\":5"));
  h.server->drain();

  const auto lines = h.log->snapshot();
  ASSERT_EQ(lines.size(), 1u);
  const Json reply = reply_for(lines, "d");
  ASSERT_EQ(reply.at("status").as_string(), "ok");
  EXPECT_TRUE(reply.at("degraded").as_bool());
  EXPECT_EQ(reply.at("backend").as_string(), "cpu-expansion");
  EXPECT_EQ(h.server->stats().degraded(), 1u);
  EXPECT_EQ(h.server->stats().retries(), 1u);  // max_attempts - 1

  // The degraded digest is the host expansion result for this instance.
  workload::ProblemSpec spec;
  spec.m = 128;
  spec.n = 128;
  spec.k = 8;
  const auto instance = workload::make_instance(spec);
  const auto host = pipelines::solve(instance, core::params_from_spec(spec),
                                     pipelines::Backend::kCpuExpansion);
  EXPECT_EQ(reply.at("digest").as_string(),
            serve::digest_hex(host.v.span()));
}

TEST(Server, NoDegradeReportsFaultUnrecovered) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_attempts = 2;
  opts.degrade_to_host = false;
  Harness h(opts);
  h.server->start();
  h.server->handle_line(solve_line(
      "u", 128, 128, 8, ",\"fault_rate\":0.5,\"fault_seed\":5"));
  h.server->drain();

  const auto lines = h.log->snapshot();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(reply_for(lines, "u").at("status").as_string(),
            "fault_unrecovered");
  EXPECT_EQ(h.server->stats().by_status(StatusCode::kFaultUnrecovered), 1u);
  EXPECT_EQ(h.server->stats().degraded(), 0u);
}

TEST(Server, StatsRecordStaysConsistent) {
  serve::ServerOptions opts;
  opts.workers = 2;
  Harness h(opts);
  h.server->start();
  h.server->handle_line(solve_line("x", 128, 128, 8));
  h.server->handle_line("broken json");
  h.server->handle_line(
      solve_line("y", 128, 128, 8, ",\"deadline_ms\":0.000001"));
  h.server->drain();

  const Json record = h.server->stats_json();
  EXPECT_NO_THROW(serve::validate_serve_json(record));
  const Json& counters = record.at("counters");
  EXPECT_EQ(counters.at("completed").as_double(), 3);
  EXPECT_EQ(counters.at("ok").as_double(), 1);
  EXPECT_EQ(counters.at("invalid").as_double(), 1);
  EXPECT_EQ(counters.at("timeout").as_double(), 1);
  // One ok reply → one modelled-latency sample; wall samples cover the two
  // requests that reached a worker.
  EXPECT_EQ(record.at("latency_ms").at("modelled").at("count").as_double(),
            1);
  EXPECT_EQ(record.at("latency_ms").at("wall").at("count").as_double(), 2);
}

TEST(Server, OversizedShapeShardsWhenAllowed) {
  // max_shards turns the PR 6 "invalid" path into shard routing: a shape
  // over max_m comes back ok, carries the shards field, and its digest is
  // exactly the digest of a direct (unbounded) solve — sharding is
  // bit-invisible (docs/SHARDING.md).
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.max_m = 512;
  opts.max_shards = 4;
  Harness h(opts);
  h.server->start();
  h.server->handle_line(solve_line("wide", 1000, 128, 8));
  h.server->drain();

  const Json reply = reply_for(h.log->snapshot(), "wide");
  ASSERT_EQ(reply.at("status").as_string(), "ok");
  EXPECT_EQ(reply.at("shards").as_double(), 2);  // ceil(8 blocks / 4) * 128

  workload::ProblemSpec spec;
  spec.m = 1000;
  spec.n = 128;
  spec.k = 8;
  const auto instance = workload::make_instance(spec);
  const auto direct = pipelines::solve(
      instance, core::params_from_spec(spec), pipelines::Backend::kSimFused);
  EXPECT_EQ(reply.at("digest").as_string(),
            serve::digest_hex(direct.v.span()));
}

TEST(Server, HugeOversizedShapeIsRefusedAtOnce) {
  // The shard count an oversized shape needs is a closed form, so intake
  // answers an M of 10^15 at once, and the next line is served as quickly.
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_shards = 4;
  Harness h(opts);
  h.server->start();
  const auto start = std::chrono::steady_clock::now();
  h.server->handle_line(solve_line("huge", 1000000000000000, 128, 8));
  h.server->handle_line(R"({"op":"health","id":"h"})");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  h.server->drain();

  const auto lines = h.log->snapshot();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(reply_for(lines, "huge").at("status").as_string(), "invalid");
  EXPECT_EQ(reply_for(lines, "h").at("state").as_string(), "serving");
}

TEST(Server, InBoundsRepliesOmitShardsField) {
  // The shards field only appears on sharded replies, so in-bounds traffic
  // is byte-identical to the pre-sharding protocol (the goldens in
  // tests/cli/serve_smoke.jsonl pin this too).
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_shards = 4;
  Harness h(opts);
  h.server->start();
  h.server->handle_line(solve_line("small", 128, 128, 8));
  h.server->drain();
  const Json reply = reply_for(h.log->snapshot(), "small");
  EXPECT_EQ(reply.at("status").as_string(), "ok");
  EXPECT_FALSE(reply.has("shards"));
}

TEST(Server, ShedVsShardBoundary) {
  // Exactly at the admission boundary: a shape needing <= max_shards
  // shards is admitted, one shard past it is shed — and the shapes that
  // never shard (K oversized, both axes oversized, host backend, N axis on
  // an unfused backend) stay invalid whatever max_shards says.
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_m = 256;   // 2 blocks
  opts.max_n = 256;
  opts.max_shards = 2;
  Harness h(opts);
  h.server->start();
  // 512 rows = 4 blocks → 2 shards of 256: admitted.
  h.server->handle_line(solve_line("fits", 512, 128, 8));
  // 640 rows = 5 blocks → needs 3 shards: shed.
  h.server->handle_line(solve_line("past", 640, 128, 8));
  // K never shards.
  h.server->handle_line(solve_line("deep", 128, 128, 512));
  // Oversized on both axes never shards.
  h.server->handle_line(solve_line("both", 512, 512, 8));
  // Host backends never shard.
  h.server->handle_line(
      solve_line("host", 512, 128, 8, ",\"backend\":\"cpu-direct\""));
  // N-axis sharding requires the fused backend.
  h.server->handle_line(
      solve_line("ncol", 128, 512, 8, ",\"backend\":\"sim-cublas-unfused\""));
  // N-axis on the fused backend shards fine.
  h.server->handle_line(solve_line("nok", 128, 512, 8));
  h.server->drain();

  const auto lines = h.log->snapshot();
  EXPECT_EQ(reply_for(lines, "fits").at("status").as_string(), "ok");
  EXPECT_EQ(reply_for(lines, "fits").at("shards").as_double(), 2);
  EXPECT_EQ(reply_for(lines, "past").at("status").as_string(), "invalid");
  EXPECT_EQ(reply_for(lines, "deep").at("status").as_string(), "invalid");
  EXPECT_EQ(reply_for(lines, "both").at("status").as_string(), "invalid");
  EXPECT_EQ(reply_for(lines, "host").at("status").as_string(), "invalid");
  EXPECT_EQ(reply_for(lines, "ncol").at("status").as_string(), "invalid");
  EXPECT_EQ(reply_for(lines, "nok").at("status").as_string(), "ok");
  EXPECT_EQ(reply_for(lines, "nok").at("shards").as_double(), 2);
}

TEST(Server, ShardedRequestWithFaultsStillRecovers) {
  // fault_rate on a sharded request routes through the per-(shard,
  // dispatch) injector factory instead of a single plan; the reply must
  // still be ok and reproducible.
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.max_m = 256;
  opts.max_shards = 4;
  Harness h(opts);
  h.server->start();
  const std::string line = solve_line(
      "faulty", 600, 128, 8, ",\"fault_rate\":0.005,\"fault_seed\":11");
  h.server->handle_line(line);
  h.server->drain();
  const Json reply = reply_for(h.log->snapshot(), "faulty");
  ASSERT_EQ(reply.at("status").as_string(), "ok");
  EXPECT_EQ(reply.at("shards").as_double(), 3);  // 5 blocks over 2-block cap

  // Same request again on a fresh server: byte-identical reply.
  Harness h2(opts);
  h2.server->start();
  h2.server->handle_line(line);
  h2.server->drain();
  const auto lines2 = h2.log->snapshot();
  ASSERT_EQ(lines2.size(), 1u);
  EXPECT_EQ(lines2[0], h.log->snapshot()[0]);
}

TEST(ServeStats, PercentilesUseNearestRank) {
  std::vector<double> sample;
  for (int i = 1; i <= 100; ++i) sample.push_back(double(i));
  EXPECT_EQ(serve::percentile(sample, 50), 50);
  EXPECT_EQ(serve::percentile(sample, 99), 99);
  EXPECT_EQ(serve::percentile(sample, 100), 100);
  EXPECT_EQ(serve::percentile({5.0}, 50), 5.0);
  EXPECT_EQ(serve::percentile({}, 99), 0.0);
}

}  // namespace
}  // namespace ksum
