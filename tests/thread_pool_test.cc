#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

namespace bbsmine {
namespace {

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // the destructor completes pending tasks before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ClampsZeroThreadsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, MemberParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, MemberParallelForEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, [&counter](size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolTest, SingleIterationRunsOnTheCallingThread) {
  ThreadPool pool(4);
  std::thread::id ran_on;
  pool.ParallelFor(1, [&ran_on](size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, NestedParallelForOnItsOwnPoolCompletes) {
  // Every worker is busy in the outer body while the inner calls run: each
  // inner call must finish on its own caller instead of waiting for the
  // pool to go idle.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.ParallelFor(4, [&pool, &inner](size_t) {
    pool.ParallelFor(8, [&inner](size_t) { ++inner; });
  });
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPoolTest, ConcurrentCallsOnOnePoolEachCoverTheirOwnIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> a(500);
  std::vector<std::atomic<int>> b(700);
  std::thread other([&pool, &b] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(b.size(), [&b](size_t i) { ++b[i]; });
    }
  });
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(a.size(), [&a](size_t i) { ++a[i]; });
  }
  other.join();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].load(), 20) << i;
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i].load(), 20) << i;
}

TEST(ThreadPoolTest, ParallelForDoesNotWaitForUnrelatedTasks) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([gate] { gate.wait(); });  // holds one worker until released
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  release.set_value();
}

TEST(FreeParallelForTest, InlineWhenSingleThreaded) {
  // threads <= 1 must run on the calling thread, in index order.
  std::vector<size_t> order;
  ParallelFor(1, 10, [&order](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(FreeParallelForTest, CoversEveryIndexOnceMultiThreaded) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(4, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(FreeParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(16, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(FreeParallelForTest, SumMatchesSerial) {
  std::atomic<uint64_t> sum{0};
  ParallelFor(8, 10'000, [&sum](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 10'000ull * 9'999ull / 2);
}

TEST(ResolveThreadsTest, ZeroMeansHardware) {
  EXPECT_EQ(ResolveThreads(0), ThreadPool::DefaultThreads());
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(7), 7u);
}

}  // namespace
}  // namespace bbsmine
