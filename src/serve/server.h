// The ksum-serve control plane: bounded admission, warm per-worker devices,
// deadlines, retry/degrade recovery, and graceful drain.
//
// A Server owns an exec::ThreadPool whose workers loop over the admission
// queue (admission.h). Each worker keeps a WorkerContext — a warm simulated
// Device grown on demand plus a one-entry instance cache — so steady-state
// requests skip device construction and point-set regeneration entirely.
// A shared tune::TuningCache (with --autotune) resolves tile geometries
// once per shape across all workers.
//
// Robustness ladder for one solve request:
//   1. cooperative deadline: an exec::CancelToken armed at admission is
//      polled between kernel launches — expiry → `timeout`, no output.
//   2. solver-level ABFT recovery (robust/recovery.h) inside each attempt.
//   3. serve-level retries: a still-flagged result is re-run with a fresh
//      fault-plan seed after exponential backoff, up to max_attempts.
//   4. degraded fallback: when every attempt stayed flagged, the request is
//      re-solved on the fault-free host expansion path and answered `ok`
//      with degraded=true (unless degrade_to_host is off → fault_unrecovered).
// Admission (pipelines/admission.h) runs at intake: a shape whose device
// arena the profile cannot hold is refused as invalid before it is queued.
// A worker never lets a request's exception escape: ksum::Error → invalid,
// exec::Cancelled → timeout, anything else → internal
// (pipelines::current_failure). One poisoned request cannot take down the
// process or perturb its neighbours (every request runs on its own reset
// device with its own injector).
//
// Replies are a pure function of the request (protocol.h), so successful
// replies are byte-identical for any worker count.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "exec/thread_pool.h"
#include "pipelines/solver.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/stats.h"
#include "tune/tuning_cache.h"

namespace ksum::serve {

struct ServerOptions {
  /// Worker loops (and ThreadPool threads), in [1, kMaxThreads].
  int workers = 2;
  /// Admission-queue capacity; a full queue sheds with `overloaded`.
  std::size_t queue_capacity = 16;
  /// Deadline applied when a request does not set one (ms; 0 = none).
  double default_deadline_ms = 0;
  /// Serve-level solve attempts per request (>= 1; each attempt runs the
  /// full solver-level recovery ladder with a fresh fault-plan seed).
  int max_attempts = 3;
  /// Backoff before retry r (1-based) is backoff_base_ms * 2^(r-1); 0
  /// disables the sleep (tests).
  double backoff_base_ms = 0;
  /// After all attempts stay flagged, fall back to the host expansion path
  /// and reply ok/degraded instead of fault_unrecovered.
  bool degrade_to_host = true;
  /// Resolve tile geometries through a shared TuningCache (tuned once per
  /// shape, all workers reuse the entry).
  bool autotune = false;
  /// Admission bounds: solve requests beyond these are refused as invalid
  /// (they also size the warm devices' growth cap).
  std::size_t max_m = 4096;
  std::size_t max_n = 4096;
  std::size_t max_k = 256;
  /// How many per-device shards admission may split an oversized M or N
  /// into before shedding (docs/SHARDING.md). 1 keeps the PR 6 behaviour:
  /// every oversized shape is refused as invalid. K never shards, host
  /// backends never shard, and a shape oversized on both M and N is always
  /// refused.
  std::size_t max_shards = 1;
  /// Base run options (device/timing/energy specs, layout) copied into
  /// every request. fault_injector/cancel/warm_device must be null — the
  /// server owns those per request.
  pipelines::RunOptions run;
  /// Identity of the device profile `run`'s specs came from. Keys the
  /// shared autotune cache, so entries tuned while serving one architecture
  /// are never replayed when the daemon restarts on another.
  std::string profile = "gtx970";
};

class Server {
 public:
  /// `sink` receives every reply line (no trailing newline); calls are
  /// serialised by the server, but may come from any worker thread.
  Server(const ServerOptions& options,
         std::function<void(const std::string&)> sink);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Launches the worker loops. Must be called exactly once before any
  /// solve request can complete (intake itself works immediately).
  void start();

  /// Thread-safe intake of one request line. health/stats/invalid/shed
  /// replies are emitted synchronously; admitted solves reply later from a
  /// worker. Lines that are empty or all-whitespace are ignored.
  void handle_line(const std::string& line);

  /// Graceful drain: stops admission, lets queued requests finish, joins
  /// the workers. Idempotent. Solve lines arriving afterwards are shed
  /// with `overloaded`.
  void drain();

  bool draining() const;

  const ServeStats& stats() const { return stats_; }
  const ServerOptions& options() const { return options_; }
  std::size_t queue_depth() const { return queue_.depth(); }

  /// Snapshot of the ksum-serve-v1 record.
  profile::Json stats_json() const;

 private:
  struct Pending {
    ServeRequest request;
    std::chrono::steady_clock::time_point enqueued;
    // steady_clock::time_point::max() = no deadline.
    std::chrono::steady_clock::time_point deadline;
    // The run options admitted at intake, shard routing included, and the
    // arena admission sized for them.
    pipelines::RunOptions run;
    std::size_t arena_bytes = 0;
  };

  /// Per-worker warm state. The device is grown (never shrunk) to each
  /// request's admitted arena (pipelines::admit); run_pipeline resets it
  /// per run, which is bit-identical to a fresh device.
  struct WorkerContext {
    std::optional<gpusim::Device> device;
    std::optional<workload::ProblemSpec> cached_spec;
    std::optional<workload::Instance> cached_instance;
  };

  void reply(const std::string& line);
  void worker_loop(std::size_t worker);
  void run_solve(WorkerContext& ctx, const Pending& item);
  const workload::Instance& instance_for(WorkerContext& ctx,
                                         const workload::ProblemSpec& spec);
  /// The run options a request executes under: the base options plus its
  /// robustness, treecode budget, shard routing and tile resolver. Intake
  /// admits exactly these; the worker adds its cancel token and warm device.
  pipelines::RunOptions run_options_for(const ServeRequest& request,
                                        std::size_t shard_count,
                                        shard::ShardAxis shard_axis);
  std::string health_line(const std::string& id) const;

  const ServerOptions options_;
  std::function<void(const std::string&)> sink_;
  std::mutex sink_mutex_;
  BoundedQueue<Pending> queue_;
  exec::ThreadPool pool_;
  std::thread runner_;
  std::atomic<bool> started_{false};
  std::atomic<bool> drained_{false};
  ServeStats stats_;
  tune::TuningCache tuning_cache_;
  std::atomic<std::uint64_t> auto_id_{0};
};

}  // namespace ksum::serve
