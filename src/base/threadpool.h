// ks::ParallelFor: the fan-out behind the offline, many-unit stages — the
// kcc tree build, the pre/post rebuild, the corpus evaluation sweep and a
// fleet rollout's waves (paper §5: ksplice-create is an offline build step
// and may use as many cores as the build host offers). Applying an update
// and linting a package run on the caller's thread.
//
// Library code keeps its determinism guarantee by construction: fn(i)
// writes its result into slot i and callers reduce in input order, so the
// set of worker interleavings never changes observable output.

#ifndef KSPLICE_BASE_THREADPOOL_H_
#define KSPLICE_BASE_THREADPOOL_H_

#include <cstddef>
#include <functional>

namespace ks {

// Runs fn(0), ..., fn(n-1) on min(jobs, n) fresh threads that take indices
// from one shared counter, and returns once every call has finished.
// jobs <= 0 means one worker per hardware thread. A resolved jobs of 1 (or
// n <= 1) runs inline on the calling thread; otherwise the caller only
// waits. `fn` must be safe to invoke concurrently and must not throw
// (library code returns ks::Status instead).
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn);

}  // namespace ks

#endif  // KSPLICE_BASE_THREADPOOL_H_
