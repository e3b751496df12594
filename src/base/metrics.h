// Metrics: a process-wide registry of named counters, gauges and
// histograms with JSON export.
//
// Every layer of the pipeline publishes its per-phase observables here —
// kcc compiles and object-cache traffic, pre-post section diffs, run-pre
// candidate trials and bytes matched, stop_machine pauses and quiescence
// retries, kvm instructions and context switches — so benches and
// ksplice_tool --metrics=FILE report from one source of truth instead of
// private stopwatch counters.
//
// Counters and gauges are lock-free atomics; histograms use power-of-two
// buckets with atomic counts. Registry lookups take a mutex, so hot paths
// resolve their instruments once (function-local static references are the
// idiom — registered instruments are never deallocated and references stay
// valid for the process lifetime).
//
// Naming convention: "<module>.<noun>" with dots, e.g.
// "kcc.objcache.hits", "runpre.bytes_matched", "ksplice.stop_pause_ns".

#ifndef KSPLICE_BASE_METRICS_H_
#define KSPLICE_BASE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "base/status.h"

namespace ks {

// Monotonically increasing count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Latest-value instrument (module arena bytes in use, live threads, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Power-of-two-bucketed distribution: bucket i counts observations with
// value <= 2^i (the last bucket is unbounded). 48 buckets cover nanosecond
// durations up to ~3 days.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void Observe(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;  // 0 when empty
  uint64_t max() const;
  double mean() const;
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Upper bound of bucket i (2^i; UINT64_MAX for the last).
  static uint64_t BucketBound(int i);

  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

class MetricsRegistry {
 public:
  // The process-wide registry (never destroyed).
  static MetricsRegistry& Global();

  // Finds or creates. Returned references stay valid for the registry's
  // lifetime; hot paths should cache them.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Snapshot of every counter's value (bench deltas).
  std::map<std::string, uint64_t> CounterValues() const;

  // {"counters":{...},"gauges":{...},"histograms":{...}} — see DESIGN.md
  // for the schema.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Shorthand for MetricsRegistry::Global().
MetricsRegistry& Metrics();

}  // namespace ks

#endif  // KSPLICE_BASE_METRICS_H_
