#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <utility>

namespace bbsmine {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t count = std::max<size_t>(1, num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    max_queue_depth_ = std::max<uint64_t>(max_queue_depth_, queue_.size());
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  // Shared with the helper tasks, so a helper dequeued after this call
  // returned still finds it: it claims an index past n and never runs body.
  struct State {
    explicit State(size_t n) : done(static_cast<std::ptrdiff_t>(n)) {}
    std::atomic<size_t> next{0};
    std::latch done;  // counts down once per finished iteration
  };
  auto state = std::make_shared<State>(n);
  auto drain = [state, n, &body] {
    for (size_t i; (i = state->next.fetch_add(1)) < n;) {
      body(i);
      state->done.count_down();
    }
  };
  for (size_t t = 1; t < std::min(num_threads(), n); ++t) Submit(drain);
  drain();
  state->done.wait();
}

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& body,
                 uint64_t* max_queue_depth) {
  size_t threads = std::min(ResolveThreads(num_threads), n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(threads);
  pool.ParallelFor(n, body);
  if (max_queue_depth != nullptr) {
    *max_queue_depth = std::max(*max_queue_depth, pool.max_queue_depth());
  }
}

size_t ResolveThreads(size_t num_threads) {
  if (num_threads == 0) return ThreadPool::DefaultThreads();
  return num_threads;
}

}  // namespace bbsmine
