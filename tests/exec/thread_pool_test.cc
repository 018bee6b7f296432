// ThreadPool contract tests: worker-count validation, full index coverage,
// pool reuse, submission-order results from map_ordered, deterministic
// (lowest-index) exception propagation, the worker-thread flag and the
// env_threads rule. gtest assertions are not thread-safe, so every test
// computes inside workers and asserts on the main thread afterwards.
#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.h"
#include "exec/batch_engine.h"

namespace ksum::exec {
namespace {

TEST(ThreadPoolTest, RejectsNonPositiveThreadCounts) {
  EXPECT_THROW(ThreadPool(0), Error);
  EXPECT_THROW(ThreadPool(-1), Error);
  EXPECT_THROW(ThreadPool(-100), Error);
}

TEST(ThreadPoolTest, RejectsCountsAboveTheCap) {
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1), Error);
}

TEST(ThreadPoolTest, ReportsItsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3);
}

TEST(ThreadPoolTest, HardwareThreadsHasAFloorOfOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
  EXPECT_LE(ThreadPool::hardware_threads(), ThreadPool::kMaxThreads);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyJobIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int job = 0; job < 5; ++job) {
    pool.parallel_for(100, [&](std::size_t i) { total.fetch_add(i); });
  }
  EXPECT_EQ(total.load(), 5u * (99u * 100u / 2u));
}

TEST(ThreadPoolTest, SingleThreadPoolStillCovers) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  // One worker → bodies never race, plain writes are fine.
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, MapOrderedReturnsResultsInSubmissionOrder) {
  ThreadPool pool(8);
  const auto results = map_ordered(pool, 257, [](std::size_t i) {
    return std::to_string(i * 3);
  });
  ASSERT_EQ(results.size(), 257u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i], std::to_string(i * 3)) << "index " << i;
  }
}

TEST(ThreadPoolTest, MapOrderedThreadsOverloadMatchesPoolOverload) {
  ThreadPool pool(4);
  const auto via_pool =
      map_ordered(pool, 32, [](std::size_t i) { return i * i; });
  const auto via_count =
      map_ordered(4, 32, [](std::size_t i) { return i * i; });
  EXPECT_EQ(via_pool, via_count);
}

TEST(ThreadPoolTest, LowestFailingIndexWinsExceptionPropagation) {
  ThreadPool pool(8);
  // Several indices throw; which worker reaches which first is scheduling
  // noise, but the pool must rethrow the lowest failing index's exception.
  std::string message;
  try {
    pool.parallel_for(64, [](std::size_t i) {
      if (i % 10 == 7) throw Error("boom at index " + std::to_string(i));
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("boom at index 7"), std::string::npos) << message;
}

TEST(ThreadPoolTest, PoolSurvivesAFailedJob) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8, [](std::size_t i) {
        if (i == 0) throw Error("first job fails");
      }),
      Error);
  // The next job on the same pool runs clean.
  std::atomic<int> calls{0};
  pool.parallel_for(8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, OnWorkerThread) {
  ThreadPool pool(4);
  std::vector<int> inside(16, 0);
  pool.parallel_for(inside.size(), [&](std::size_t i) {
    inside[i] = ThreadPool::on_worker_thread() ? 1 : 0;
  });
  for (std::size_t i = 0; i < inside.size(); ++i) {
    EXPECT_EQ(inside[i], 1) << "index " << i;
  }
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPoolTest, EnvThreadsAcceptsOnlyAnIntegerInRange) {
  constexpr const char* kName = "KSUM_THREAD_POOL_TEST_THREADS";
  const int fallback = ThreadPool::hardware_threads();
  ASSERT_EQ(setenv(kName, "3", 1), 0);
  EXPECT_EQ(env_threads(kName), 3);
  ASSERT_EQ(unsetenv(kName), 0);
  EXPECT_EQ(env_threads(kName), fallback);
  for (const char* value : {"", "0", "-2", "abc", "257"}) {
    ASSERT_EQ(setenv(kName, value, 1), 0);
    EXPECT_EQ(env_threads(kName), fallback) << "value \"" << value << '"';
  }
  ASSERT_EQ(unsetenv(kName), 0);
}

}  // namespace
}  // namespace ksum::exec
