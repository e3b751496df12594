#include "base/threadpool.h"

#include <algorithm>

namespace ks {

int ThreadPool::DefaultWorkers() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int workers) {
  if (workers <= 0) {
    workers = DefaultWorkers();
  }
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // shutdown with a drained queue
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) {
      idle_.notify_all();
    }
  }
}

void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (jobs <= 0) {
    jobs = ThreadPool::DefaultWorkers();
  }
  if (jobs == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  ThreadPool pool(static_cast<int>(
      std::min<size_t>(static_cast<size_t>(jobs), n)));
  for (size_t i = 0; i < n; ++i) {
    pool.Submit([&fn, i] { fn(i); });
  }
  pool.Wait();
}

}  // namespace ks
