#include "serve/server.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "core/exact.h"
#include "pipelines/admission.h"
#include "pipelines/batch.h"
#include "shard/plan.h"
#include "workload/point_generators.h"

namespace ksum::serve {

namespace {

using Clock = std::chrono::steady_clock;

bool spec_equal(const workload::ProblemSpec& a,
                const workload::ProblemSpec& b) {
  return a.m == b.m && a.n == b.n && a.k == b.k &&
         a.bandwidth == b.bandwidth && a.distribution == b.distribution &&
         a.seed == b.seed;
}

}  // namespace

Server::Server(const ServerOptions& options,
               std::function<void(const std::string&)> sink)
    : options_(options),
      sink_(std::move(sink)),
      queue_(options.queue_capacity),
      pool_(options.workers) {
  KSUM_REQUIRE(options_.workers >= 1, "server needs at least one worker");
  KSUM_REQUIRE(options_.max_attempts >= 1,
               "server max_attempts must be >= 1");
  KSUM_REQUIRE(options_.default_deadline_ms >= 0 &&
                   options_.backoff_base_ms >= 0,
               "server deadline/backoff must be >= 0");
  KSUM_REQUIRE(options_.run.fault_injector == nullptr &&
                   options_.run.cancel == nullptr &&
                   options_.run.warm_device == nullptr,
               "server base run options must not carry an injector, cancel "
               "token, or warm device — those are per-request");
  tuning_cache_.set_profile(options_.profile);
}

Server::~Server() { drain(); }

void Server::start() {
  KSUM_REQUIRE(!started_.exchange(true), "Server::start called twice");
  runner_ = std::thread([this] {
    // Worker bodies swallow every per-request failure, so parallel_for only
    // throws on a bug in the loops themselves; surface it without taking
    // down the process.
    try {
      pool_.parallel_for(static_cast<std::size_t>(options_.workers),
                         [this](std::size_t w) { worker_loop(w); });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ksum-serve: worker pool failed: %s\n", e.what());
    }
  });
}

void Server::drain() {
  queue_.close();
  if (started_.load() && !drained_.exchange(true)) {
    runner_.join();
  }
}

bool Server::draining() const { return queue_.closed(); }

void Server::reply(const std::string& line) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_(line);
}

profile::Json Server::stats_json() const {
  return stats_.to_json(options_.workers, options_.queue_capacity,
                        queue_.depth());
}

std::string Server::health_line(const std::string& id) const {
  profile::Json j = profile::Json::object();
  j.set("id", id);
  j.set("status", to_string(StatusCode::kOk));
  j.set("op", "health");
  j.set("state", draining() ? "draining" : "serving");
  j.set("workers", options_.workers);
  j.set("queue_depth", std::uint64_t(queue_.depth()));
  j.set("in_flight", stats_.in_flight());
  return j.dump_compact();
}

void Server::handle_line(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return;
  if (line[first] == '#') return;  // trace-file comments
  stats_.record_received();

  ServeRequest request;
  try {
    request = parse_request(line);
  } catch (const RequestError& e) {
    // Echo the id when it parsed; a line whose id is unreadable gets "" so
    // the client can at least count invalids.
    stats_.record_status(StatusCode::kInvalid);
    reply(error_reply(e.id, StatusCode::kInvalid, e.what()));
    return;
  }
  if (request.id.empty()) {
    request.id =
        "auto-" + std::to_string(auto_id_.fetch_add(1) + 1);
  }

  // Control-plane ops answer at intake — they must stay responsive while
  // the queue is full or draining.
  if (request.op == Op::kHealth) {
    reply(health_line(request.id));
    return;
  }
  if (request.op == Op::kStats) {
    // A stats reply must never kill the daemon: to_json validates its own
    // record and throws on any inconsistency it cannot repair.
    try {
      profile::Json j = profile::Json::object();
      j.set("id", request.id);
      j.set("status", to_string(StatusCode::kOk));
      j.set("op", "stats");
      j.set("stats", stats_json());
      reply(j.dump_compact());
    } catch (const Error& e) {
      reply(error_reply(request.id, StatusCode::kInternal, e.what()));
    }
    return;
  }

  // Admission bounds are enforced before the queue so an oversized request
  // can never reach (or exhaust) a worker's device. With max_shards > 1 a
  // shape oversized on exactly one of M or N may instead be split across
  // per-device shards (docs/SHARDING.md): the merged reply is bit-identical
  // to what one big device would have produced, so routing through the
  // planner is invisible to the client apart from the `shards` field.
  std::size_t shard_count = 1;
  shard::ShardAxis shard_axis = shard::ShardAxis::kM;
  std::string refusal;
  const bool m_over = request.spec.m > options_.max_m;
  const bool n_over = request.spec.n > options_.max_n;
  if (m_over || n_over || request.spec.k > options_.max_k) {
    const std::string bounds =
        "admission bounds (max " + std::to_string(options_.max_m) + 'x' +
        std::to_string(options_.max_n) + " K=" +
        std::to_string(options_.max_k) + ')';
    const std::string exceeds = "shape exceeds " + bounds;
    if (request.spec.k > options_.max_k) {
      // K is the reduction depth — both shard axes replicate it whole.
      refusal = "K exceeds " + bounds + " and does not shard";
    } else if (m_over && n_over) {
      refusal = exceeds + " on both M and N";
    } else if (options_.max_shards <= 1) {
      refusal = exceeds;
    } else if (!pipelines::is_simulated(request.backend)) {
      refusal = exceeds + " and host backends do not shard";
    } else if (n_over && request.backend != pipelines::Backend::kSimFused) {
      refusal =
          exceeds + " on N and N-axis sharding requires the fused backend";
    } else {
      const std::size_t dim = m_over ? request.spec.m : request.spec.n;
      const std::size_t limit = m_over ? options_.max_m : options_.max_n;
      const std::size_t needed =
          shard::min_shards_for_limit(dim, /*align=*/128, limit);
      if (needed == 0 || needed > options_.max_shards) {
        refusal = exceeds + " even split across " +
                  std::to_string(options_.max_shards) + " shard(s)";
      } else {
        shard_count = needed;
        shard_axis = m_over ? shard::ShardAxis::kM : shard::ShardAxis::kN;
      }
    }
  }
  // Within the bounds, admission sizes every device the request will build
  // (pipelines/admission.h) under the options it will run with, so a shape
  // whose arena the profile cannot hold is refused here instead of failing
  // an allocation on a worker.
  pipelines::RunOptions run =
      run_options_for(request, shard_count, shard_axis);
  std::size_t arena_bytes = 0;
  if (refusal.empty()) {
    try {
      arena_bytes = pipelines::admit(request.spec, request.backend, run);
    } catch (const Error& e) {
      refusal = e.what();
    }
  }
  if (!refusal.empty()) {
    stats_.record_status(StatusCode::kInvalid);
    reply(error_reply(request.id, StatusCode::kInvalid, refusal));
    return;
  }

  Pending item;
  item.request = std::move(request);
  item.run = std::move(run);
  item.arena_bytes = arena_bytes;
  item.enqueued = Clock::now();
  const double deadline_ms = item.request.deadline_ms >= 0
                                 ? item.request.deadline_ms
                                 : options_.default_deadline_ms;
  item.deadline =
      deadline_ms > 0
          ? item.enqueued + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    deadline_ms))
          : Clock::time_point::max();

  const std::string id = item.request.id;
  switch (queue_.try_push(std::move(item))) {
    case PushResult::kAccepted:
      stats_.record_accepted();
      return;
    case PushResult::kShed:
      stats_.record_status(StatusCode::kOverloaded);
      reply(error_reply(id, StatusCode::kOverloaded,
                        "admission queue full"));
      return;
    case PushResult::kClosed:
      stats_.record_status(StatusCode::kOverloaded);
      reply(error_reply(id, StatusCode::kOverloaded, "server draining"));
      return;
  }
}

void Server::worker_loop(std::size_t worker) {
  (void)worker;
  WorkerContext ctx;
  while (auto item = queue_.pop()) {
    stats_.enter_flight();
    try {
      run_solve(ctx, *item);
    } catch (const std::exception& e) {
      // run_solve already classifies everything it expects; this is the
      // last-resort belt so one poisoned request can never kill the loop.
      stats_.record_status(StatusCode::kInternal);
      reply(error_reply(item->request.id, StatusCode::kInternal, e.what()));
    } catch (...) {
      stats_.record_status(StatusCode::kInternal);
      reply(error_reply(item->request.id, StatusCode::kInternal,
                        "unknown exception"));
    }
    stats_.leave_flight();
  }
}

const workload::Instance& Server::instance_for(
    WorkerContext& ctx, const workload::ProblemSpec& spec) {
  if (!ctx.cached_spec.has_value() || !spec_equal(*ctx.cached_spec, spec)) {
    ctx.cached_instance = workload::make_instance(spec);
    ctx.cached_spec = spec;
  }
  return *ctx.cached_instance;
}

pipelines::RunOptions Server::run_options_for(
    const ServeRequest& request, std::size_t shard_count,
    shard::ShardAxis shard_axis) {
  pipelines::RunOptions run = options_.run;
  if (request.robust) {
    run.checks.enabled = true;
    run.recovery.enabled = true;
  }
  if (run.tree.enabled() && (request.backend != pipelines::Backend::kSimFused ||
                             request.fault_rate > 0)) {
    // The daemon-wide treecode budget only applies where the ε contract
    // holds: fused-backend requests without fault injection. Everything
    // else runs the dense path it would have run without --tree-eps.
    run.tree = tree::TreeSpec{};
  }
  if (shard_count > 1) {
    // Admission routed this oversized shape through the shard planner:
    // each shard builds its own device sized to its slice, so the worker's
    // warm device is not used.
    run.shards.count = shard_count;
    run.shards.axis = shard_axis;
  }
  if (pipelines::is_simulated(request.backend) && options_.autotune) {
    run.geometry_resolver = &tuning_cache_;
  }
  return run;
}

void Server::run_solve(WorkerContext& ctx, const Pending& item) {
  const ServeRequest& request = item.request;

  exec::CancelToken token;
  if (item.deadline != Clock::time_point::max()) {
    token.set_deadline(item.deadline);
  }

  SolveReplyInfo info;
  info.backend = request.backend;
  StatusCode status = StatusCode::kOk;
  std::string out_line;
  try {
    const workload::Instance& instance = instance_for(ctx, request.spec);
    const core::KernelParams params = core::params_from_spec(request.spec);

    pipelines::RunOptions run = item.run;
    run.cancel = &token;
    const bool simulated = pipelines::is_simulated(request.backend);
    std::size_t arena = item.arena_bytes;
    if (simulated && options_.autotune) {
      tuning_cache_.get_or_tune(request.spec.m, request.spec.n,
                                request.spec.k, request.backend,
                                tune::options_for(run, options_.profile));
      // The tuned geometry may pad differently from the one admitted at
      // intake, so it is admitted in turn.
      arena = pipelines::admit(request.spec, request.backend, run);
    }
    if (simulated && !run.shards.enabled()) {
      // Grow the warm device to admission's exact arena for this request's
      // own solution (emplace frees the old arena before allocating the
      // new one).
      if (!ctx.device.has_value() || ctx.device->memory().capacity() < arena) {
        ctx.device.emplace(options_.run.device, arena);
      }
      run.warm_device = &*ctx.device;
    }

    const std::uint64_t base_seed = effective_fault_seed(request);
    pipelines::SolveResult result;
    bool flagged = false;
    for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
      token.check();
      if (attempt > 0) {
        stats_.record_retry();
        ++info.serve_attempts;
        if (options_.backoff_base_ms > 0) {
          const double ms = options_.backoff_base_ms *
                            double(std::uint64_t(1) << (attempt - 1));
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(ms));
        }
      }
      // Sharded attempts get an independent plan per (shard, dispatch)
      // derived from this attempt's seed.
      const auto plan =
          simulated ? pipelines::attach_fault_plan(
                          run, attempt_fault_seed(base_seed, attempt),
                          request.fault_rate)
                    : nullptr;
      result = pipelines::solve(instance, params, request.backend, run);
      run.fault_injector = nullptr;
      if (result.shards.has_value()) info.shards = result.shards->count();
      info.solver_attempts += result.recovery.attempts;
      info.faults_detected += result.recovery.faults_detected;
      info.fallback_used = info.fallback_used || result.recovery.fallback_used;
      flagged = result.recovery.gave_up;
      if (!flagged) break;
    }
    stats_.record_faults_detected(info.faults_detected);

    if (flagged && !options_.degrade_to_host) {
      status = StatusCode::kFaultUnrecovered;
      out_line = error_reply(request.id, status,
                             "every recovery attempt stayed flagged");
    } else if (flagged) {
      // Degraded fallback: the fault-free host expansion path. Slower and
      // without the simulator's report, but the reply stays trustworthy.
      token.check();
      pipelines::RunOptions host_run = options_.run;
      host_run.cancel = &token;
      host_run.tree = tree::TreeSpec{};  // no fused near field on the host
      result = pipelines::solve(instance, params,
                                pipelines::Backend::kCpuExpansion, host_run);
      info.backend = pipelines::Backend::kCpuExpansion;
      info.degraded = true;
      stats_.record_degraded();
    }

    if (status == StatusCode::kOk && request.verify) {
      const pipelines::OracleCheck check =
          pipelines::check_oracle(instance, params, result);
      info.oracle_rel_error = check.rel_error;
      info.verified = check.ok;
      if (!info.verified) {
        // Wrong answer with nothing flagged: silent corruption — never
        // report the result as ok.
        status = StatusCode::kInternal;
        out_line = error_reply(request.id, status,
                               "result failed oracle verification");
      }
    }

    if (status == StatusCode::kOk) {
      if (result.report.has_value()) {
        info.modelled_seconds = result.report->seconds;
        info.energy_joules = result.report->energy.total();
        stats_.record_modelled_seconds(result.report->seconds);
      }
      out_line = solve_reply(request.id, request, info, result.v.span());
    }
  } catch (...) {
    const pipelines::RequestFailure failure = pipelines::current_failure();
    status = failure.status;
    out_line = error_reply(request.id, failure.status, failure.message);
  }
  stats_.record_status(status);
  stats_.record_wall_seconds(
      std::chrono::duration<double>(Clock::now() - item.enqueued).count());
  reply(out_line);
}

}  // namespace ksum::serve
