#include "exec/thread_pool.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/error.h"

namespace ksum::exec {
namespace {

thread_local bool t_on_worker = false;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  KSUM_REQUIRE(threads >= 1 && threads <= kMaxThreads,
               "thread count must be in [1, " + std::to_string(kMaxThreads) +
                   "], got " + std::to_string(threads));
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

int env_threads(const char* name) {
  const char* value = std::getenv(name);
  if (value != nullptr) {
    const char* end = value + std::strlen(value);
    int n = 0;
    const auto [ptr, ec] = std::from_chars(value, end, n);
    if (ec == std::errc() && ptr == end && n >= 1 &&
        n <= ThreadPool::kMaxThreads) {
      return n;
    }
  }
  return ThreadPool::hardware_threads();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              const CancelToken* cancel) {
  if (count == 0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  KSUM_CHECK_MSG(body_ == nullptr,
                 "ThreadPool::parallel_for re-entered from a pool body");
  body_ = &body;
  cancel_ = cancel;
  count_ = count;
  next_.store(0, std::memory_order_relaxed);
  workers_active_ = workers_.size();
  error_ = nullptr;
  error_index_ = 0;
  ++generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return workers_active_ == 0; });
  body_ = nullptr;
  cancel_ = nullptr;
  const std::exception_ptr error = error_;
  error_ = nullptr;
  // Indices never claimed (cursor short of count) mean the job was
  // abandoned by the cancel hook below.
  const bool abandoned =
      cancel != nullptr && next_.load(std::memory_order_relaxed) < count_;
  lock.unlock();
  if (error) std::rethrow_exception(error);
  if (abandoned) {
    throw Cancelled("ksum: parallel_for cancelled before every index ran");
  }
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    const CancelToken* cancel = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || (body_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      body = body_;
      cancel = cancel_;
      count = count_;
    }

    // Claim indices until the job drains. Failures are recorded keyed by
    // index so the rethrow is scheduling-independent; remaining indices
    // still run (per-request isolation — one bad request cannot starve the
    // rest of the batch). A cancelled token stops further claims — the
    // cursor stays short of count, which parallel_for reports as Cancelled.
    for (;;) {
      if (cancel != nullptr && cancel->cancelled()) break;
      const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) break;
      try {
        (*body)(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error_ == nullptr || index < error_index_) {
          error_ = std::current_exception();
          error_index_ = index;
        }
      }
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_active_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace ksum::exec
