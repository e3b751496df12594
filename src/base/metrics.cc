#include "base/metrics.h"

#include <bit>
#include <fstream>

#include "base/json.h"

namespace ks {

namespace {

// Lowers `current` (resp. raises) toward `value` with a CAS loop.
void AtomicMin(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Observe(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
  // Bucket i holds values <= 2^i: index by bit width, clamped to the last
  // (unbounded) bucket.
  int idx = value <= 1 ? 0 : std::bit_width(value - 1);
  if (idx >= kBuckets) {
    idx = kBuckets - 1;
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
}

uint64_t Histogram::min() const {
  uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

uint64_t Histogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::BucketBound(int i) {
  if (i >= kBuckets - 1) {
    return UINT64_MAX;
  }
  return uint64_t{1} << i;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry& Metrics() { return MetricsRegistry::Global(); }

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

std::map<std::string, uint64_t> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] : counters_) {
    out[name] = counter->value();
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Field(name, counter->value());
  }
  json.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Field(name, gauge->value());
  }
  json.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json.Key(name)
        .BeginObject()
        .Field("count", histogram->count())
        .Field("sum", histogram->sum())
        .Field("min", histogram->min())
        .Field("max", histogram->max())
        .Field("mean", histogram->mean())
        .Key("buckets")
        .BeginArray();
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      uint64_t n = histogram->bucket(i);
      if (n == 0) {
        continue;
      }
      uint64_t bound = Histogram::BucketBound(i);
      json.BeginObject();
      if (bound == UINT64_MAX) {
        json.Field("le", "inf");
      } else {
        json.Field("le", bound);
      }
      json.Field("n", n).EndObject();
    }
    json.EndArray().EndObject();
  }
  return json.EndObject().EndObject().Take();
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Internal("cannot write metrics to " + path);
  }
  out << ToJson();
  return OkStatus();
}

}  // namespace ks
