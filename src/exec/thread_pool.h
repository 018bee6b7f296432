// Host-side worker pool for the batch execution engine.
//
// A ThreadPool owns a fixed set of worker threads and runs index-based jobs:
// parallel_for(count, body) invokes body(i) exactly once for every
// i ∈ [0, count), with workers claiming indices from a shared atomic cursor.
// Scheduling order is non-deterministic, but the engine built on top
// (batch_engine.h) writes every result into a slot keyed by its submission
// index, so aggregate output is byte-identical for any worker count — the
// determinism contract docs/PARALLELISM.md specifies and the
// thread-invariance tests pin.
//
// Exceptions thrown by a body are captured per index; after the job drains,
// the exception of the *lowest* failing index is rethrown on the calling
// thread (again independent of scheduling). The pool never touches simulator
// state: each task is expected to build its own Device, injector, and
// observer (see pipelines::solve_many).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/cancel.h"

namespace ksum::exec {

class ThreadPool {
 public:
  /// Spawns `threads` workers. Throws ksum::Error unless
  /// 1 <= threads <= kMaxThreads (the CLI maps that to exit code 2).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Runs body(i) once for every i in [0, count) across the workers and
  /// blocks until all indices completed. Serial-reentrant only: must be
  /// called from outside the pool (never from a body). If one or more
  /// bodies threw, rethrows the exception of the lowest failing index.
  ///
  /// `cancel` (optional, not owned) is the cooperative-cancellation hook:
  /// workers poll it before claiming each index and stop claiming once it
  /// reads cancelled, so no *new* body starts after cancellation (bodies
  /// already in flight run to completion — cancellation inside a body is the
  /// body's own job, e.g. via RunOptions::cancel). A job abandoned this way
  /// throws exec::Cancelled after the drain; per-index exceptions recorded
  /// before the cancellation still win (lowest index first), so error
  /// reporting stays scheduling-independent.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body,
                    const CancelToken* cancel = nullptr);

  /// Hard upper bound on the worker count (flag validation uses the same
  /// constant, so --threads errors match the pool's contract).
  static constexpr int kMaxThreads = 256;

  /// std::thread::hardware_concurrency with a floor of 1 (the value the
  /// tools use for --threads=auto style defaults).
  static int hardware_threads();

  /// True on a thread some ThreadPool runs as a worker, false elsewhere.
  /// Work that could fan out again (the host GEMM) runs serially when it
  /// holds, so pools never nest.
  static bool on_worker_thread();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait here for a job
  std::condition_variable done_cv_;   // parallel_for waits here for drain

  // Current job, published under mutex_ and identified by generation_ so a
  // worker never re-enters a job it already finished.
  const std::function<void(std::size_t)>* body_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t workers_active_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  // First (lowest-index) failure of the current job.
  std::exception_ptr error_;
  std::size_t error_index_ = 0;
};

/// The thread count named by environment variable `name`: its value when
/// that is an integer in [1, ThreadPool::kMaxThreads], else
/// ThreadPool::hardware_threads().
int env_threads(const char* name);

}  // namespace ksum::exec
