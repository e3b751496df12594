// The benchmark's own spans around each call it makes into the program.
//
// A span has a name, a start, an end and the span that was open when it
// began (its parent). Spans stay in memory while the workload runs and are
// aggregated per name at the end — count, total, self time (duration minus
// the time covered by its direct children) and the exact median — and
// written out as a Chrome trace (chrome://tracing, Perfetto).
//
// Recording is single-threaded: every workload issues its calls from the
// main thread (the fleet fans out inside RunRollout, below the span). When
// the recorder is off, opening a span costs one branch.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "json.h"

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // string literal
  uint64_t start_ns = 0;       // since the recorder's epoch
  uint64_t end_ns = 0;
  int parent = -1;             // index into the record list, -1 = root
};

struct LayerStat {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_ms = 0.0;  // exact median duration
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Spans opened while disabled are not recorded.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;  // nullptr when not recording
    int index_ = -1;
  };

  const std::vector<SpanRecord>& records() const { return records_; }

  // Per-name aggregates, in order of first appearance.
  std::vector<LayerStat> Aggregate() const;

  // {"traceEvents":[...]} with one complete ("X") event per span; each
  // event's args carry its id and its parent's id and name.
  JsonValue ChromeTrace() const;

 private:
  uint64_t Now() const;

  bool enabled_ = false;
  uint64_t epoch_ns_ = 0;
  std::vector<SpanRecord> records_;
  std::vector<int> open_;  // stack of open span indices
};

// Opens a span named `name` on `recorder` for the rest of the scope.
#define PERFBENCH_SPAN(recorder, name)                                \
  ::perfbench::SpanRecorder::Scope PERFBENCH_SPAN_CAT_(span_, __LINE__)( \
      recorder, name)
#define PERFBENCH_SPAN_CAT_(a, b) PERFBENCH_SPAN_CAT_IMPL_(a, b)
#define PERFBENCH_SPAN_CAT_IMPL_(a, b) a##b

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
