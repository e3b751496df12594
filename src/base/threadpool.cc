#include "base/threadpool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace ks {

void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn) {
  if (jobs <= 0) {
    jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  if (jobs == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  const size_t threads = std::min(static_cast<size_t>(jobs), n);
  std::vector<std::jthread> workers;  // declared after `next`: joined first
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        fn(i);
      }
    });
  }
}

}  // namespace ks
