#include "base/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>

#include "base/json.h"
#include "base/strings.h"

namespace ks {

namespace {

// Bounded so a runaway sweep cannot exhaust memory; generous enough for a
// full 64-entry corpus evaluation with per-unit compile spans.
constexpr size_t kTraceCapacity = 1u << 18;

std::atomic<bool> g_enabled{false};

struct TraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
};

TraceBuffer& Buffer() {
  static TraceBuffer* buffer = new TraceBuffer();
  return *buffer;
}

// The trace epoch: timestamps are relative to the first use so exported
// numbers stay small.
uint64_t EpochNs() {
  static const uint64_t kEpoch = NowNs();
  return kEpoch;
}

uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

thread_local int tl_depth = 0;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetTraceEnabled(bool enabled) {
  if (enabled) {
    EpochNs();  // pin the epoch before the first span
  }
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool TraceEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void ClearTrace() {
  TraceBuffer& buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.clear();
  buffer.dropped = 0;
}

std::vector<TraceEvent> TraceSnapshot() {
  TraceBuffer& buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  return buffer.events;
}

uint64_t TraceDropped() {
  TraceBuffer& buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  return buffer.dropped;
}

std::string TraceJson() {
  JsonWriter json;
  json.BeginObject().Key("traceEvents").BeginArray();
  for (const TraceEvent& event : TraceSnapshot()) {
    // Complete ("X") events with microsecond timestamps, the format both
    // chrome://tracing and Perfetto ingest.
    json.BeginObject()
        .Field("name", event.name)
        .Field("ph", "X")
        .Field("pid", 1)
        .Field("tid", event.thread)
        .Field("ts", static_cast<double>(event.start_ns) / 1000.0)
        .Field("dur", static_cast<double>(event.dur_ns) / 1000.0)
        .Key("args").BeginObject()
        .Field("depth", event.depth)
        .Field("ticks", event.ticks);
    for (const auto& [key, value] : event.args) {
      json.Field(key, value);
    }
    json.EndObject().EndObject();
  }
  return json.EndArray().EndObject().Take();
}

Status WriteTraceJson(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Internal("cannot write trace to " + path);
  }
  out << TraceJson();
  return OkStatus();
}

std::string TraceSummary() {
  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t ticks = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& event : TraceSnapshot()) {
    Agg& agg = by_name[event.name];
    agg.count += 1;
    agg.total_ns += event.dur_ns;
    agg.ticks += event.ticks;
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  std::string out = StrPrintf("%-32s %8s %12s %12s %12s\n", "span", "count",
                              "total ms", "mean us", "vm ticks");
  for (const auto& [name, agg] : rows) {
    out += StrPrintf(
        "%-32s %8llu %12.3f %12.3f %12llu\n", name.c_str(),
        static_cast<unsigned long long>(agg.count),
        static_cast<double>(agg.total_ns) / 1e6,
        agg.count == 0
            ? 0.0
            : static_cast<double>(agg.total_ns) / 1e3 /
                  static_cast<double>(agg.count),
        static_cast<unsigned long long>(agg.ticks));
  }
  uint64_t dropped = TraceDropped();
  if (dropped != 0) {
    out += StrPrintf("(%llu events dropped: buffer full)\n",
                     static_cast<unsigned long long>(dropped));
  }
  return out;
}

TraceSpan::TraceSpan(const char* name) : enabled_(TraceEnabled()) {
  if (!enabled_) {
    return;
  }
  name_ = name;
  depth_ = tl_depth++;
  start_ns_ = NowNs() - EpochNs();
}

TraceSpan::~TraceSpan() {
  if (!enabled_) {
    return;
  }
  --tl_depth;
  TraceEvent event;
  event.name = name_;
  event.thread = ThisThreadId();
  event.depth = depth_;
  event.start_ns = start_ns_;
  event.dur_ns = NowNs() - EpochNs() - start_ns_;
  event.ticks = ticks_;
  event.args = std::move(args_);
  TraceBuffer& buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.events.size() >= kTraceCapacity) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(std::move(event));
}

void TraceSpan::AddTicks(uint64_t ticks) {
  if (enabled_) {
    ticks_ += ticks;
  }
}

void TraceSpan::Annotate(const char* key, const std::string& value) {
  if (enabled_) {
    args_.emplace_back(key, value);
  }
}

void TraceSpan::Annotate(const char* key, uint64_t value) {
  if (enabled_) {
    args_.emplace_back(
        key, StrPrintf("%llu", static_cast<unsigned long long>(value)));
  }
}

}  // namespace ks
