// A small fixed-size work-queue thread pool for the update-creation
// pipeline (paper §5: ksplice-create is an offline build step, so unlike
// the apply side it may use as many cores as the build host offers).
//
// Library code keeps its determinism guarantee by construction: workers
// write results into pre-assigned slots and callers reduce in input order,
// so the set of worker interleavings never changes observable output.

#ifndef KSPLICE_BASE_THREADPOOL_H_
#define KSPLICE_BASE_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ks {

class ThreadPool {
 public:
  // `workers` <= 0 selects DefaultWorkers(). The count is injectable so
  // tests can pin a pool shape regardless of the host.
  explicit ThreadPool(int workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not throw (library code returns ks::Status
  // instead); an escaping exception terminates, as with std::thread.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and every running task has finished.
  void Wait();

  int workers() const { return static_cast<int>(threads_.size()); }

  // std::thread::hardware_concurrency(), clamped to at least 1.
  static int DefaultWorkers();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int active_ = 0;      // tasks currently executing
  bool shutdown_ = false;
};

// Runs fn(0), ..., fn(n-1) on a temporary pool of min(jobs, n) workers and
// waits for all of them. jobs <= 0 selects ThreadPool::DefaultWorkers(),
// as for ThreadPool. A resolved jobs of 1 (or n <= 1) runs inline on the
// calling thread, making the serial path identical to pre-pool code. `fn`
// must be safe to invoke concurrently; deterministic output is achieved by
// having fn(i) write only to slot i of a caller-owned result vector.
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn);

}  // namespace ks

#endif  // KSPLICE_BASE_THREADPOOL_H_
