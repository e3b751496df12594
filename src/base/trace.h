// Trace spans: nestable, thread-safe regions of interest across the
// create -> match -> apply pipeline.
//
// A TraceSpan measures the wall time between its construction and
// destruction and records one event when it dies. Spans nest naturally —
// each host thread carries a depth counter — and can be annotated with
// VM-tick durations and key=value pairs so pipeline phases report both
// wall time and simulated-kernel time.
//
// Tracing is off by default and zero-cost when disabled: the constructor
// reads one relaxed atomic and does nothing else (no clock read, no
// allocation, no lock). Turn it on with SetTraceEnabled(true) — the
// ksplice_tool --trace flag and benches do — and drain the buffer with
// TraceSnapshot()/TraceJson(). The JSON export is Chrome trace-viewer
// compatible ("traceEvents" complete events with microsecond timestamps),
// so a capture loads directly into chrome://tracing or Perfetto.
//
// The buffer is bounded (kTraceCapacity events); once full, new events are
// dropped and counted so a runaway sweep cannot exhaust memory.

#ifndef KSPLICE_BASE_TRACE_H_
#define KSPLICE_BASE_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"

namespace ks {

// Monotonic wall clock (std::chrono::steady_clock) in nanoseconds: the
// clock spans use, and the one every stage timer reads.
uint64_t NowNs();

// One completed span.
struct TraceEvent {
  std::string name;
  uint32_t thread = 0;  // dense per-process host-thread id
  int depth = 0;        // nesting depth within the thread (0 = outermost)
  uint64_t start_ns = 0;  // since the process trace epoch
  uint64_t dur_ns = 0;
  uint64_t ticks = 0;     // VM ticks attributed via TraceSpan::AddTicks
  std::vector<std::pair<std::string, std::string>> args;
};

// Global on/off switch. Safe from any thread.
void SetTraceEnabled(bool enabled);
bool TraceEnabled();

// Drops all buffered events (and the dropped-event count).
void ClearTrace();

// Copies out the buffered events, oldest first.
std::vector<TraceEvent> TraceSnapshot();

// Events dropped because the buffer was full.
uint64_t TraceDropped();

// Chrome trace-viewer JSON ({"traceEvents":[...]}).
std::string TraceJson();
Status WriteTraceJson(const std::string& path);

// Human-readable aggregation: per span name, count / total / mean wall
// time and total ticks, sorted by total time descending.
std::string TraceSummary();

class TraceSpan {
 public:
  // `name` must outlive the span (string literals throughout this repo).
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Attributes VM ticks to this span (additive).
  void AddTicks(uint64_t ticks);

  // Attaches a key=value argument. No-ops when tracing is disabled.
  void Annotate(const char* key, const std::string& value);
  void Annotate(const char* key, uint64_t value);

  bool enabled() const { return enabled_; }

 private:
  bool enabled_;
  const char* name_ = nullptr;
  int depth_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t ticks_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace ks

#endif  // KSPLICE_BASE_TRACE_H_
