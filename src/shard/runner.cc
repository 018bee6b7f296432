#include "shard/runner.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>

#include "common/error.h"
#include "exec/thread_pool.h"
#include "shard/merge.h"

namespace ksum::shard {
namespace {

using pipelines::RunOptions;
using pipelines::Solution;

/// One (shard, dispatch) hand-out. `banned` is the worker that failed the
/// previous dispatch (-1 = none): the queue refuses to give the task back
/// to it unless it is the only worker, so a re-dispatch preferentially
/// lands on a different device.
struct Task {
  std::size_t shard = 0;
  int dispatch = 0;
  int banned = -1;
};

/// The master side of the runner: a monitor the workers pull tasks from.
/// Fresh shards are handed out in index order; re-dispatched shards are
/// queued separately and take priority for any non-banned worker. All
/// workers stay inside next_task until every shard completed (or the run
/// aborted), so a re-dispatch always finds a live worker to adopt it.
class TaskQueue {
 public:
  TaskQueue(std::size_t total, int workers)
      : total_(total), workers_(workers) {}

  std::optional<Task> next_task(int worker) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (abort_ || finished_ == total_) return std::nullopt;
      for (std::size_t i = 0; i < retries_.size(); ++i) {
        if (retries_[i].banned != worker || workers_ == 1) {
          Task task = retries_[i];
          retries_.erase(retries_.begin() + static_cast<std::ptrdiff_t>(i));
          return task;
        }
      }
      if (next_fresh_ < total_) {
        return Task{next_fresh_++, 0, -1};
      }
      // Nothing claimable: shards are in flight elsewhere, or the only
      // queued retry is banned for us — wait for a state change.
      cv_.wait(lock);
    }
  }

  void task_done(std::size_t /*shard*/) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++finished_;
    }
    cv_.notify_all();
  }

  void redispatch(std::size_t shard, int dispatch, int failed_worker) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      retries_.push_back(Task{shard, dispatch, failed_worker});
    }
    cv_.notify_all();
  }

  void abort() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      abort_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t total_;
  int workers_;
  std::size_t next_fresh_ = 0;
  std::size_t finished_ = 0;
  std::vector<Task> retries_;
  bool abort_ = false;
};

/// Completed state of one shard, filled by whichever worker finishes it.
struct ShardSlot {
  pipelines::SolveResult result;
  StagedPartials staged;
  ShardSliceReport slice;
  std::exception_ptr error;
  bool has_result = false;
};

}  // namespace

workload::Instance slice_instance(const workload::Instance& instance,
                                  ShardAxis axis, const ShardRange& range) {
  KSUM_REQUIRE(range.end > range.begin, "empty shard range");
  const std::size_t k = instance.spec.k;
  workload::Instance out;
  out.spec = instance.spec;
  if (axis == ShardAxis::kM) {
    KSUM_REQUIRE(range.end <= instance.spec.m, "shard range exceeds M");
    out.spec.m = range.size();
    out.a = Matrix(range.size(), k, Layout::kRowMajor);
    // A is row major: a row range is one contiguous block.
    std::memcpy(out.a.data(), instance.a.data() + range.begin * k,
                range.size() * k * sizeof(float));
    out.b = instance.b;
    out.w = instance.w;
    return out;
  }
  KSUM_REQUIRE(axis == ShardAxis::kN, "unresolved shard axis");
  KSUM_REQUIRE(range.end <= instance.spec.n, "shard range exceeds N");
  out.spec.n = range.size();
  out.a = instance.a;
  out.b = Matrix(k, range.size(), Layout::kColMajor);
  // B is col major: a column range is one contiguous block.
  std::memcpy(out.b.data(), instance.b.data() + range.begin * k,
              range.size() * k * sizeof(float));
  out.w = Vector(range.size());
  for (std::size_t j = 0; j < range.size(); ++j) {
    out.w[j] = instance.w[range.begin + j];
  }
  return out;
}

pipelines::SolveResult run_sharded(const workload::Instance& instance,
                                   const core::KernelParams& params,
                                   pipelines::Backend backend,
                                   const RunOptions& options) {
  const Solution solution = pipelines::solution_of(backend);
  const ShardSpec& spec = options.shards;
  KSUM_REQUIRE(options.fault_injector == nullptr,
               "sharded runs cannot take a single fault_injector — one "
               "injector cannot say which device the fault lives on; use "
               "ShardSpec::injector_factory");
  const std::size_t m = instance.spec.m;
  const std::size_t n = instance.spec.n;
  const std::size_t k = instance.spec.k;
  const ShardPlan plan = plan_shards(m, n, k, options, solution);
  const std::size_t count = plan.count();
  const ShardAxis axis = plan.axis;

  int workers = spec.workers > 0 ? spec.workers : static_cast<int>(count);
  workers = std::min(workers, static_cast<int>(count));
  workers = std::min(workers, exec::ThreadPool::kMaxThreads);
  workers = std::max(workers, 1);
  const int max_dispatches = std::max(spec.max_dispatches, 1);

  // Slice once up front; dispatches of the same shard share the slice.
  std::vector<workload::Instance> slices;
  slices.reserve(count);
  for (const ShardRange& range : plan.ranges) {
    slices.push_back(slice_instance(instance, axis, range));
  }

  // Warm-device arena: the plan's largest shard of *this* solution, so
  // every dispatch reuses the worker's device (reset() makes that
  // bit-identical to a fresh one). A recovery fallback to the unfused
  // pipeline may need the intermediate matrix too — run_pipeline then
  // builds a one-off fresh device, which is the same bits, just colder.
  const std::size_t arena_bytes = plan.arena_bytes;

  std::vector<ShardSlot> slots(count);
  for (std::size_t i = 0; i < count; ++i) {
    slots[i].slice.index = i;
    slots[i].slice.begin = plan.ranges[i].begin;
    slots[i].slice.end = plan.ranges[i].end;
    slots[i].slice.dispatches = 0;
    slots[i].slice.recovery.attempts = 0;
  }
  std::mutex slots_mutex;
  TaskQueue queue(count, workers);

  const auto worker_body = [&](std::size_t worker_index) {
    std::optional<gpusim::Device> device;  // built on first task
    while (std::optional<Task> task =
               queue.next_task(static_cast<int>(worker_index))) {
      try {
        if (!device.has_value()) {
          device.emplace(options.device, arena_bytes);
        }
        RunOptions shard_options = options;
        shard_options.shards = ShardSpec{};
        shard_options.geometry_resolver = nullptr;
        shard_options.warm_device = &*device;
        shard_options.fault_injector = nullptr;
        std::shared_ptr<gpusim::FaultInjector> injector;
        if (spec.injector_factory) {
          injector = spec.injector_factory(task->shard, task->dispatch);
          shard_options.fault_injector = injector.get();
        }
        StagedPartials staged;
        if (axis == ShardAxis::kN) {
          // The merge replays the staged reduction, so the shard must run
          // it — and must not fall back to a pipeline that has none.
          shard_options.atomic_reduction = false;
          shard_options.capture_staged_partials = &staged;
          shard_options.recovery.fallback_to_unfused = false;
        }
        pipelines::SolveResult result = pipelines::solve(
            slices[task->shard], params, backend, shard_options);
        const bool gave_up = result.recovery.gave_up;
        const bool retry_left = task->dispatch + 1 < max_dispatches;
        {
          std::lock_guard<std::mutex> lock(slots_mutex);
          ShardSlot& slot = slots[task->shard];
          ++slot.slice.dispatches;
          slot.slice.recovery.attempts += result.recovery.attempts;
          slot.slice.recovery.faults_detected +=
              result.recovery.faults_detected;
          slot.slice.recovery.fallback_used |= result.recovery.fallback_used;
          if (!gave_up || !retry_left) {
            slot.slice.recovery.gave_up = gave_up;
            slot.result = std::move(result);
            slot.staged = std::move(staged);
            slot.has_result = true;
          }
        }
        if (gave_up && retry_left) {
          // The shard's own recovery budget is exhausted on this device;
          // hand it back for another worker to pick up.
          queue.redispatch(task->shard, task->dispatch + 1,
                           static_cast<int>(worker_index));
        } else {
          queue.task_done(task->shard);
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(slots_mutex);
          slots[task->shard].error = std::current_exception();
        }
        queue.abort();
      }
    }
  };

  exec::ThreadPool pool(workers);
  pool.parallel_for(static_cast<std::size_t>(workers), worker_body);

  // Rethrow the lowest-indexed shard failure, so error reporting does not
  // depend on which worker hit it first.
  for (const ShardSlot& slot : slots) {
    if (slot.error) std::rethrow_exception(slot.error);
  }
  for (const ShardSlot& slot : slots) {
    KSUM_CHECK(slot.has_result);
  }

  // Fixed-order tree merge over shard indexes (never completion order).
  std::vector<ShardPiece> pieces;
  pieces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ShardPiece piece;
    piece.index = i;
    piece.begin = plan.ranges[i].begin;
    piece.end = plan.ranges[i].end;
    if (axis == ShardAxis::kM) {
      const Vector& v = slots[i].result.v;
      piece.rows.assign(v.data(), v.data() + v.size());
    } else {
      KSUM_CHECK(slots[i].staged.rows > 0 &&
                 slots[i].staged.rows == slots[0].staged.rows);
      piece.staged = std::move(slots[i].staged.data);
      piece.staged_rows = slots[i].staged.rows;
      piece.staged_cols = slots[i].staged.cols;
    }
    pieces.push_back(std::move(piece));
  }
  const ShardPiece root = merge_tree(axis, std::move(pieces));

  pipelines::SolveResult out;
  out.v = finalize_merge(axis, root, m);

  // Merged report: kernels concatenated in shard order (names prefixed
  // "s<i>/"), event counters and energy summed, modelled wall time the max
  // over shards (each shard has its own device), FLOP efficiency recomputed
  // for the whole problem.
  pipelines::PipelineReport merged;
  merged.solution = solution;
  merged.m = m;
  merged.n = n;
  merged.k = k;
  bool checks_enabled = true;
  for (std::size_t i = 0; i < count; ++i) {
    const ShardSlot& slot = slots[i];
    KSUM_CHECK(slot.result.report.has_value());
    const pipelines::PipelineReport& rep = *slot.result.report;
    for (const pipelines::KernelReport& kr : rep.kernels) {
      merged.kernels.push_back(kr);
      std::string name = "s";
      name += std::to_string(i);
      name += '/';
      name += kr.name;
      merged.kernels.back().name = std::move(name);
    }
    merged.total += rep.total;
    merged.energy += rep.energy;
    merged.seconds = std::max(merged.seconds, rep.seconds);
    checks_enabled = checks_enabled && rep.robustness.checks_enabled;
    for (const auto& check : rep.robustness.checks) {
      merged.robustness.checks.push_back(check);
    }
  }
  merged.robustness.checks_enabled = checks_enabled;
  merged.useful_flops = pipelines::pipeline_useful_flops(m, n, k);
  merged.flop_efficiency = gpusim::flop_efficiency(
      options.device, merged.useful_flops, merged.seconds);
  merged.result = out.v;
  out.report = std::move(merged);

  // Whole-request recovery summary: attempts are total pipeline executions
  // across shards and dispatches; gave_up if any shard exhausted every
  // dispatch still flagged.
  out.recovery.attempts = 0;
  ShardReport shard_report;
  shard_report.axis = axis;
  shard_report.workers = workers;
  for (std::size_t i = 0; i < count; ++i) {
    out.recovery.attempts += slots[i].slice.recovery.attempts;
    out.recovery.faults_detected += slots[i].slice.recovery.faults_detected;
    out.recovery.fallback_used |= slots[i].slice.recovery.fallback_used;
    out.recovery.gave_up |= slots[i].slice.recovery.gave_up;
    shard_report.slices.push_back(slots[i].slice);
  }
  out.shards = std::move(shard_report);
  return out;
}

}  // namespace ksum::shard
