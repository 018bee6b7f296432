// serve_mixed: an in-process serve::Server with 2 workers fed a seeded
// 200-line trace of the traffic_replay kind (five small shapes, a quarter of
// the requests with fault injection and ABFT retries, hopeless deadlines,
// malformed lines). Each round runs two phases on one server:
//
//   open loop  — the trace at a fixed arrival rate (--rate, which run.py
//                reads from BENCHMARK.json); latency is timed from each
//                request's scheduled send time to its reply;
//   saturated  — the whole trace handed over back to back; throughput is
//                replies per second until the last reply.
//
// Rounds repeat until --seconds have passed. Every request is small, so the
// per-request fixed costs dominate: parse, admission, queue wait, warm
// device reset, instance generation, padding, recovery and reply encoding.
#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/error.h"
#include "core/exact.h"
#include "exec/cancel.h"
#include "pipelines/solver.h"
#include "profile/json.h"
#include "robust/fault_plan.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trace.h"
#include "workload/point_generators.h"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr std::size_t kTraceSize = 200;
// An open-loop phase is invalid when the generator sent any request more
// than this many inter-arrival intervals late, or when more than this many
// requests per worker were still outstanding at the last send.
constexpr double kMaxLateIntervals = 2;
constexpr std::size_t kMaxBacklogPerWorker = 4;

enum class Expect { kOk, kInvalid, kTimeout };

struct TraceLine {
  std::string line;
  std::string id;  // "" for malformed lines (their replies carry no id)
  Expect expect = Expect::kOk;
};

constexpr std::size_t kShapes = 5;
constexpr struct {
  std::size_t m, n, k;
} kShape[kShapes] = {
    {128, 128, 8}, {256, 128, 8}, {100, 90, 8}, {128, 256, 16}, {256, 256, 8},
};

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string solve_line(const std::string& id, std::size_t shape,
                       std::uint64_t points_seed) {
  return "{\"op\":\"solve\",\"id\":\"" + id +
         "\",\"m\":" + std::to_string(kShape[shape].m) +
         ",\"n\":" + std::to_string(kShape[shape].n) +
         ",\"k\":" + std::to_string(kShape[shape].k) +
         ",\"seed\":" + std::to_string(points_seed);
}

/// A fault-free request of one shape, sent while setting up.
std::string warmup_line(std::size_t shape) {
  return solve_line("warmup", shape, 1) + "}";
}

/// The seeded trace. Roles sit at fixed positions, as in the
/// traffic_replay bench (every 4th line fault-injected, every 37th with a
/// hopeless deadline, every 53rd malformed, shapes round-robin), so every
/// seed offers the same mix in the same order; the seed picks the fault
/// rates and fault seeds and the point sets.
std::vector<TraceLine> make_trace(std::uint64_t seed) {
  std::uint64_t state = seed;
  const std::uint64_t points_seed = 1 + seed % 1000003;
  std::vector<TraceLine> trace(kTraceSize);
  for (std::size_t i = 0; i < kTraceSize; ++i) {
    TraceLine& t = trace[i];
    if (i % 53 == 7) {
      t.line = "malformed request #" + std::to_string(i);
      t.expect = Expect::kInvalid;
      continue;
    }
    t.id = 'r' + std::to_string(i);
    t.line = solve_line(t.id, i % kShapes, points_seed);
    if (i % 4 == 0) {
      t.line += ",\"fault_rate\":0.0" +
                std::to_string(1 + splitmix(state) % 3) + ",\"fault_seed\":" +
                std::to_string(1 + splitmix(state) % 1000000);
    }
    if (i % 37 == 5) {
      t.line += ",\"deadline_ms\":0.000001";
      t.expect = Expect::kTimeout;
    }
    t.line += "}";
  }
  return trace;
}

serve::ServerOptions server_options(std::size_t workers) {
  serve::ServerOptions options;
  options.workers = static_cast<int>(workers);
  options.queue_capacity = kTraceSize + 1;  // the benchmark never sheds
  options.max_attempts = 2;
  return options;
}

/// Thread-safe reply collector with arrival timestamps.
class ReplySink {
 public:
  struct Reply {
    Clock::time_point at;
    std::string line;
  };

  void push(const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replies_.push_back(Reply{Clock::now(), line});
    }
    arrived_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return replies_.size();
  }

  /// Waits until `count` replies arrived, then takes them all.
  std::vector<Reply> take(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool done = arrived_.wait_for(lock, std::chrono::seconds(90), [&] {
      return replies_.size() >= count;
    });
    KSUM_REQUIRE(done, "serve_mixed: replies did not arrive within 90 s");
    std::vector<Reply> out;
    out.swap(replies_);
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable arrived_;
  std::vector<Reply> replies_;
};

struct ParsedReply {
  std::string id;
  std::string status;
  bool degraded = false;
  double serve_attempts = 0;
  double solver_attempts = 0;
  double faults_detected = 0;
  double modelled_ms = 0;
  double energy_j = 0;
};

ParsedReply parse_reply(const std::string& line) {
  const profile::Json doc = profile::Json::parse(line);
  ParsedReply out;
  out.id = doc.at("id").as_string();
  out.status = doc.at("status").as_string();
  if (out.status == "ok") {
    out.degraded = doc.at("degraded").as_bool();
    out.serve_attempts = doc.at("serve_attempts").as_double();
    out.solver_attempts = doc.at("solver_attempts").as_double();
    out.faults_detected = doc.at("faults_detected").as_double();
    out.modelled_ms = doc.at("modelled_ms").as_double();
    out.energy_j = doc.at("energy_j").as_double();
  }
  return out;
}

const char* expected_status(Expect expect) {
  switch (expect) {
    case Expect::kOk:
      return "ok";
    case Expect::kInvalid:
      return "invalid";
    case Expect::kTimeout:
      return "timeout";
  }
  return "?";
}

/// One phase's timeline: per trace line, when it was due, when handle_line
/// started and returned; per reply, when it arrived.
struct Phase {
  std::vector<Clock::time_point> due, sent, intake_end;
  std::vector<ReplySink::Reply> replies;
  std::size_t backlog_end = 0;
  double seconds = 0;  // first send to last reply
};

Phase run_phase(serve::Server& server, ReplySink& sink,
                const std::vector<TraceLine>& trace, double rate) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(rate > 0 ? 1.0 / rate : 0.0));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Clock::time_point due =
        start + interval * static_cast<Clock::rep>(i);
    if (rate > 0) {
      // Sleep to just before the due time, then spin: wake-up jitter would
      // otherwise count as latency.
      std::this_thread::sleep_until(due - std::chrono::milliseconds(1));
      while (Clock::now() < due) {
      }
    }
    phase.due.push_back(rate > 0 ? due : start);
    phase.sent.push_back(Clock::now());
    server.handle_line(trace[i].line);
    phase.intake_end.push_back(Clock::now());
  }
  phase.backlog_end = trace.size() - sink.size();
  phase.replies = sink.take(trace.size());
  Clock::time_point last = start;
  for (const auto& reply : phase.replies) last = std::max(last, reply.at);
  phase.seconds = std::chrono::duration<double>(last - start).count();
  return phase;
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Index of each trace line's reply in `replies` (malformed lines, whose
/// replies carry no id, take the id-less replies in order).
std::vector<std::size_t> match_replies(
    const std::vector<TraceLine>& trace,
    const std::vector<ParsedReply>& parsed) {
  std::map<std::string, std::size_t> by_id;
  std::vector<std::size_t> anonymous;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    if (parsed[i].id.empty()) {
      anonymous.push_back(i);
    } else {
      KSUM_REQUIRE(by_id.emplace(parsed[i].id, i).second,
                   "serve_mixed: two replies for id " + parsed[i].id);
    }
  }
  std::vector<std::size_t> out(trace.size());
  std::size_t next_anonymous = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].id.empty()) {
      KSUM_REQUIRE(next_anonymous < anonymous.size(),
                   "serve_mixed: missing reply for a malformed line");
      out[i] = anonymous[next_anonymous++];
    } else {
      const auto it = by_id.find(trace[i].id);
      KSUM_REQUIRE(it != by_id.end(),
                   "serve_mixed: missing reply for " + trace[i].id);
      out[i] = it->second;
    }
  }
  return out;
}

/// Checks every reply of a phase: its status is the one its line must
/// produce, and an ok reply is byte-identical to the 1-worker reference
/// (same V digest, modelled time, energy and recovery counters).
void check_phase(Result& r, const std::vector<TraceLine>& trace,
                 const Phase& phase, const std::vector<std::size_t>& match,
                 const std::vector<ParsedReply>& parsed,
                 const std::map<std::string, std::string>& reference) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ParsedReply& reply = parsed[match[i]];
    bool ok = reply.status == expected_status(trace[i].expect);
    if (ok && trace[i].expect == Expect::kOk) {
      const auto it = reference.find(trace[i].id);
      ok = it != reference.end() && it->second == phase.replies[match[i]].line;
    }
    r.check(ok, "reply to line " + std::to_string(i) + " (" +
                    phase.replies[match[i]].line.substr(0, 160) + ")");
  }
}

/// Reply lines of a 1-worker server over the whole trace, by id.
std::map<std::string, std::string> reference_replies(
    const std::vector<TraceLine>& trace) {
  ReplySink sink;
  serve::Server server(server_options(1),
                       [&](const std::string& line) { sink.push(line); });
  server.start();
  for (const TraceLine& t : trace) server.handle_line(t.line);
  std::map<std::string, std::string> out;
  for (const auto& reply : sink.take(trace.size())) {
    const ParsedReply parsed = parse_reply(reply.line);
    if (!parsed.id.empty()) out[parsed.id] = reply.line;
  }
  server.drain();
  return out;
}

/// What the solo, single-thread replay of one request measured.
struct Solo {
  std::string reply;
  double service_s = 0;
  double parse_s = 0;
  double make_instance_s = 0;
  double encode_s = 0;
  std::uint64_t faults_injected = 0;
  double faults_detected = 0;
  double solver_attempts = 0;
  /// Fault-free ok requests: the final report and solve wall time.
  std::optional<pipelines::PipelineReport> report;
  double solve_s = 0;
  Vector v;
};

/// Replays one request the way a server worker runs it (serve/server.h's
/// robustness ladder) through the public functions, on `device`, a warm
/// device grown like a worker's.
Solo solo_request(const std::string& line,
                  const serve::ServerOptions& options,
                  std::optional<gpusim::Device>& device) {
  Solo out;
  const Clock::time_point start = Clock::now();
  serve::ServeRequest request;
  try {
    request = serve::parse_request(line);
  } catch (const Error& e) {
    out.reply = serve::error_reply("", StatusCode::kInvalid, e.what());
    out.service_s = seconds_since(start);
    return out;
  }
  out.parse_s = seconds_since(start);
  exec::CancelToken token;
  if (request.deadline_ms > 0) {
    token.set_deadline(start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       request.deadline_ms)));
  }
  serve::SolveReplyInfo info;
  info.backend = request.backend;
  try {
    const Clock::time_point gen = Clock::now();
    const workload::Instance instance = workload::make_instance(request.spec);
    out.make_instance_s = seconds_since(gen);
    const core::KernelParams params = core::params_from_spec(request.spec);
    pipelines::RunOptions run = options.run;
    run.cancel = &token;
    if (request.robust) {
      run.checks.enabled = true;
      run.recovery.enabled = true;
    }
    // The worker's warm device, grown to the padded shape's arena.
    const auto up = [](std::size_t v, std::size_t a) {
      return (v + a - 1) / a * a;
    };
    const std::size_t needed = pipelines::required_device_bytes(
        up(request.spec.m, 256), up(request.spec.n, 256),
        up(request.spec.k, 64), true, 32);
    if (!device.has_value() || device->memory().capacity() < needed) {
      device.reset();
      device.emplace(options.run.device, needed);
    }
    run.warm_device = &*device;
    const std::uint64_t base_seed = serve::effective_fault_seed(request);
    pipelines::SolveResult result;
    bool flagged = false;
    for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
      token.check();
      if (attempt > 0) ++info.serve_attempts;
      std::unique_ptr<robust::FaultPlan> plan;
      if (request.fault_rate > 0) {
        plan = std::make_unique<robust::FaultPlan>(
            robust::FaultPlanConfig::uniform(
                serve::attempt_fault_seed(base_seed, attempt),
                request.fault_rate));
        run.fault_injector = plan.get();
      }
      const Clock::time_point solve_start = Clock::now();
      result = pipelines::solve(instance, params, request.backend, run);
      out.solve_s = seconds_since(solve_start);
      run.fault_injector = nullptr;
      if (plan != nullptr) out.faults_injected += plan->total_injected();
      info.solver_attempts += result.recovery.attempts;
      info.faults_detected += result.recovery.faults_detected;
      info.fallback_used = info.fallback_used || result.recovery.fallback_used;
      flagged = result.recovery.gave_up;
      if (!flagged) break;
    }
    if (flagged) {
      token.check();
      pipelines::RunOptions host_run = options.run;
      host_run.cancel = &token;
      result = pipelines::solve(instance, params,
                                pipelines::Backend::kCpuExpansion, host_run);
      info.backend = pipelines::Backend::kCpuExpansion;
      info.degraded = true;
    }
    if (result.report.has_value()) {
      info.modelled_seconds = result.report->seconds;
      info.energy_joules = result.report->energy.total();
    }
    if (request.fault_rate == 0 && result.report.has_value()) {
      out.report = result.report;
      out.v = result.v;
    }
    const Clock::time_point encode = Clock::now();
    out.reply = serve::solve_reply(request.id, request, info, result.v.span());
    out.encode_s = seconds_since(encode);
  } catch (const exec::Cancelled& e) {
    out.reply = serve::error_reply(request.id, StatusCode::kTimeout, e.what());
  }
  out.faults_detected = info.faults_detected;
  out.solver_attempts = info.solver_attempts;
  out.service_s = seconds_since(start);
  return out;
}

}  // namespace

Result run_serve(const Args& args) {
  Result r;
  const serve::ServerOptions options = server_options(kWorkers);

  // --- setup: trace generation, server construction and start, and one
  // warm-up request per shape so the workers' lazily grown devices exist
  // before timing. Repeated for a steady median; the last server is kept.
  std::vector<double> setup;
  std::vector<TraceLine> trace;
  ReplySink sink;
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < 11; ++rep) {
    if (server != nullptr) server->drain();
    server.reset();
    const Clock::time_point start = Clock::now();
    trace = make_trace(args.seed);
    server = std::make_unique<serve::Server>(
        options, [&sink](const std::string& line) { sink.push(line); });
    server->start();
    for (std::size_t shape = 0; shape < kShapes; ++shape) {
      server->handle_line(warmup_line(shape));
    }
    sink.take(kShapes);
    setup.push_back(seconds_since(start));
  }

  // --- timed rounds ------------------------------------------------------------
  std::vector<Phase> open, saturated;
  const double rounds_budget = args.trace ? 0 : args.seconds;
  const Clock::time_point rounds_start = Clock::now();
  do {
    open.push_back(run_phase(*server, sink, trace, args.rate));
    saturated.push_back(run_phase(*server, sink, trace, 0));
  } while (seconds_since(rounds_start) < rounds_budget);
  std::optional<Phase> traced_open;
  if (args.trace) traced_open = run_phase(*server, sink, trace, args.rate);
  server->drain();

  // --- correctness, outside the timed region --------------------------------
  const std::map<std::string, std::string> reference =
      reference_replies(trace);
  const double interval_ms = 1e3 / args.rate;
  std::vector<double> latency_ms, rps;
  double late_ms = 0;
  std::size_t backlog_end = 0;
  for (const std::vector<Phase>* phases : {&open, &saturated}) {
    for (const Phase& phase : *phases) {
      std::vector<ParsedReply> parsed;
      for (const auto& reply : phase.replies) {
        parsed.push_back(parse_reply(reply.line));
      }
      const std::vector<std::size_t> match = match_replies(trace, parsed);
      check_phase(r, trace, phase, match, parsed, reference);
      if (phases == &saturated) {
        rps.push_back(double(trace.size()) / phase.seconds);
        note("saturated round: %.1f req/s", rps.back());
        continue;
      }
      std::vector<double> round_ms;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        late_ms = std::max(late_ms, ms_between(phase.due[i], phase.sent[i]));
        if (parsed[match[i]].status == "ok") {
          latency_ms.push_back(
              ms_between(phase.due[i], phase.replies[match[i]].at));
          round_ms.push_back(latency_ms.back());
        }
      }
      note("open-loop round: p50 %.3f ms, p95 %.3f ms",
           percentile(round_ms, 50), percentile(round_ms, 95));
      backlog_end = std::max(backlog_end, phase.backlog_end);
    }
  }
  // Open-loop honesty: a generator that fell behind, or a backlog that
  // grew, means the offered load was not the stated one.
  if (late_ms > kMaxLateIntervals * interval_ms) {
    r.invalidate("open-loop generator fell " + std::to_string(late_ms) +
                 " ms behind schedule");
  }
  if (backlog_end > kMaxBacklogPerWorker * kWorkers) {
    r.invalidate("open-loop backlog reached " + std::to_string(backlog_end) +
                 " requests");
  }
  note("serve_mixed: %zu rounds, %zu open-loop ok latencies, p50 %.3f ms, "
       "p95 %.3f ms, saturated %.1f req/s, generator late %.3f ms, backlog "
       "%zu",
       open.size(), latency_ms.size(), percentile(latency_ms, 50),
       percentile(latency_ms, 95), median(rps), late_ms, backlog_end);

  if (!args.trace) {
    r.set("setup_s", median(setup), "s");
    r.set("op_wall_p50_ms", percentile(latency_ms, 50), "ms");
    r.set("ops_per_s", median(rps), "1/s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  // --- traced run ---------------------------------------------------------------
  // The second open-loop phase timed handle_line; its latency against the
  // untraced phase's is the tracing overhead.
  std::vector<ParsedReply> traced_parsed;
  for (const auto& reply : traced_open->replies) {
    traced_parsed.push_back(parse_reply(reply.line));
  }
  const std::vector<std::size_t> traced_match =
      match_replies(trace, traced_parsed);
  check_phase(r, trace, *traced_open, traced_match, traced_parsed, reference);

  // Solo, single-thread replay of every request: service time and its parts.
  SpanRecorder spans;
  std::optional<gpusim::Device> device;
  std::optional<gpusim::Device> replica_device;
  std::vector<Solo> solo;
  std::vector<double> parse_us, encode_us, make_instance_s;
  std::vector<std::map<std::string, double>> replica_ops;
  std::vector<double> self_s, solve_walls;
  std::map<std::string, double> modelled;
  gpusim::Counters fault_free_total, observed_counters;
  std::size_t fault_free = 0;
  PhaseObserver observer;
  bool observed = false;
  std::uint64_t faults_injected = 0;
  double faults_detected = 0, solver_attempts = 0;
  std::size_t solves = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    Solo s = solo_request(trace[i].line, options, device);
    const ParsedReply expect = traced_parsed[traced_match[i]];
    const ParsedReply got = parse_reply(s.reply);
    r.check(got.status == expect.status &&
                (got.status != "ok" ||
                 s.reply == traced_open->replies[traced_match[i]].line),
            "solo replay of line " + std::to_string(i) +
                " differs from the server's reply");
    if (!trace[i].id.empty()) {
      parse_us.push_back(s.parse_s * 1e6);
    }
    if (got.status == "ok") {
      encode_us.push_back(s.encode_s * 1e6);
      make_instance_s.push_back(s.make_instance_s);
      faults_injected += s.faults_injected;
      faults_detected += s.faults_detected;
      solver_attempts += s.solver_attempts;
      ++solves;
    }
    if (s.report.has_value()) {
      // Fault-free request: re-run it through the traced replica on a warm
      // device of its own, as the worker would.
      const serve::ServeRequest request = serve::parse_request(trace[i].line);
      const workload::Instance instance =
          workload::make_instance(request.spec);
      const core::KernelParams params = core::params_from_spec(request.spec);
      if (!replica_device.has_value() ||
          replica_device->memory().capacity() <
              device->memory().capacity()) {
        replica_device.emplace(options.run.device,
                               device->memory().capacity());
      }
      const bool watch = !observed && request.spec.m == 256 &&
                         request.spec.n == 256;
      const ReplicaRun replica = run_replica(
          spans, pipelines::Solution::kFused, instance, params, true,
          &*replica_device, watch ? &observer : nullptr);
      observed = observed || watch;
      r.check(same_bits(replica.v, s.v) &&
                  replica.counters == s.report->total,
              "traced replica of line " + std::to_string(i) +
                  " differs from pipelines::solve");
      if (watch) {
        observed_counters = replica.counters;
      } else {
        replica_ops.push_back(child_totals(spans, {replica.span}));
        self_s.push_back(s.solve_s - spans.children(replica.span));
      }
      solve_walls.push_back(s.solve_s);
      fault_free_total += s.report->total;
      ++fault_free;
      add_modelled(modelled, *s.report);
    }
    solo.push_back(std::move(s));
  }

  // Queue wait, reconstructed from the traced phase's timestamps: admitted
  // requests leave the FIFO in send order, the k-th of them (k ≥ workers)
  // when the (k − workers + 1)-th reply frees a worker.
  std::vector<std::size_t> admitted;
  std::vector<Clock::time_point> completions;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].id.empty()) continue;
    admitted.push_back(i);
    completions.push_back(traced_open->replies[traced_match[i]].at);
  }
  std::sort(completions.begin(), completions.end());
  std::vector<double> wait_ms, intake_us, coverage_ms, traced_latency_ms;
  std::vector<double> late;
  for (std::size_t k = 0; k < admitted.size(); ++k) {
    const std::size_t i = admitted[k];
    const Clock::time_point queued = traced_open->intake_end[i];
    Clock::time_point begins = queued;
    if (k >= static_cast<std::size_t>(kWorkers)) {
      begins = std::max(begins, completions[k - kWorkers]);
    }
    const double wait = ms_between(queued, begins);
    const double intake = ms_between(traced_open->sent[i], queued);
    const double gen_late = ms_between(traced_open->due[i],
                                       traced_open->sent[i]);
    late.push_back(gen_late);
    if (traced_parsed[traced_match[i]].status != "ok") continue;
    wait_ms.push_back(wait);
    intake_us.push_back(intake * 1e3);
    coverage_ms.push_back(gen_late + intake + wait + solo[i].service_s * 1e3);
    traced_latency_ms.push_back(ms_between(
        traced_open->due[i], traced_open->replies[traced_match[i]].at));
  }
  std::vector<double> service_ms;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (traced_parsed[traced_match[i]].status == "ok") {
      service_ms.push_back(solo[i].service_s * 1e3);
    }
  }

  double retries = 0, degraded = 0, shed = 0, modelled_s = 0, energy_j = 0;
  double accepted = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ParsedReply& reply = traced_parsed[traced_match[i]];
    if (!trace[i].id.empty() && reply.status != "overloaded") ++accepted;
    if (reply.status == "overloaded") ++shed;
    if (reply.status != "ok") continue;
    retries += reply.serve_attempts - 1;
    degraded += reply.degraded ? 1 : 0;
    modelled_s += reply.modelled_ms * 1e-3;
    energy_j += reply.energy_j;
  }
  const double ok_count = double(service_ms.size());
  set_model_metrics(r, modelled_s / ok_count, energy_j / ok_count);
  set_gpusim_counts(r, fault_free_total, sum(solve_walls));
  // Counts and modelled kernel times per fault-free request (the sums above
  // cover all of them).
  for (const char* name :
       {"gpusim.smem_requests", "gpusim.smem_transactions",
        "gpusim.smem_bank_conflicts", "gpusim.global_requests",
        "gpusim.l2_sectors", "gpusim.dram_transactions",
        "gpusim.warp_instructions"}) {
    r.metrics[name].value /= double(fault_free);
  }
  for (auto& entry : modelled) entry.second /= double(fault_free);
  set_replay_metrics(r, observer, observed_counters, 0.2);
  set_kernel_metrics(r, replica_ops, modelled, &observer);
  r.set("pipelines.self_s", median(self_s), "s");
  r.set("workload.make_instance_s", median(make_instance_s), "s");
  r.set("serve.parse_us", median(parse_us), "us");
  r.set("serve.intake_us", median(intake_us), "us");
  r.set("serve.latency_p95_ms", percentile(latency_ms, 95), "ms");
  r.set("serve.queue_wait_ms", median(wait_ms), "ms");
  r.set("serve.service_ms", median(service_ms), "ms");
  r.set("serve.reply_encode_us", median(encode_us), "us");
  r.set("serve.retries_per_request", accepted > 0 ? retries / accepted : 0,
        "ratio");
  r.set("serve.degraded", degraded, "count");
  r.set("serve.shed", shed, "count");
  r.set("serve.generator_late_ms", percentile(late, 99), "ms");
  r.set("serve.backlog_end", double(traced_open->backlog_end), "count");
  r.set("robust.faults_injected", double(faults_injected), "count");
  r.set("robust.faults_detected",
        faults_injected > 0 ? faults_detected / double(faults_injected) : 0,
        "ratio");
  r.set("robust.attempts_per_request",
        solves > 0 ? solver_attempts / double(solves) : 0, "ratio");
  // Each ok request's parts against its own traced latency.
  set_coverage(r, coverage_ms, traced_latency_ms, 0.30);
  const double p50 = percentile(traced_latency_ms, 50);
  r.set("trace.overhead_s",
        (p50 - percentile(latency_ms, 50)) * 1e-3, "s");
  spans.print_summary();
  return r;
}

}  // namespace perfbench
