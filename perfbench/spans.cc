#include "spans.h"

#include <chrono>
#include <map>

#include "stats.h"

namespace perfbench {

SpanRecorder::SpanRecorder() { epoch_ns_ = Now(); }

uint64_t SpanRecorder::Now() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder != nullptr && recorder->enabled_ ? recorder
                                                          : nullptr) {
  if (recorder_ == nullptr) {
    return;
  }
  SpanRecord record;
  record.name = name;
  record.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
  index_ = static_cast<int>(recorder_->records_.size());
  recorder_->records_.push_back(record);
  recorder_->open_.push_back(index_);
  // Read the clock last so the bookkeeping above is not inside the span.
  recorder_->records_[static_cast<size_t>(index_)].start_ns =
      recorder_->Now() - recorder_->epoch_ns_;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) {
    return;
  }
  recorder_->records_[static_cast<size_t>(index_)].end_ns =
      recorder_->Now() - recorder_->epoch_ns_;
  recorder_->open_.pop_back();
}

std::vector<LayerStat> SpanRecorder::Aggregate() const {
  // Time covered by each span's direct children. Children of one parent
  // never overlap (recording is single-threaded and strictly nested).
  std::vector<uint64_t> child_ns(records_.size(), 0);
  for (const SpanRecord& record : records_) {
    if (record.parent >= 0) {
      child_ns[static_cast<size_t>(record.parent)] +=
          record.end_ns - record.start_ns;
    }
  }
  std::vector<LayerStat> stats;
  std::map<std::string, size_t> slot;
  std::vector<Samples> durations;
  for (size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& record = records_[i];
    auto [it, inserted] = slot.emplace(record.name, stats.size());
    if (inserted) {
      stats.push_back(LayerStat{record.name, 0, 0.0, 0.0, 0.0});
      durations.emplace_back();
    }
    double ms = static_cast<double>(record.end_ns - record.start_ns) / 1e6;
    LayerStat& stat = stats[it->second];
    ++stat.count;
    stat.total_ms += ms;
    stat.self_ms += ms - static_cast<double>(child_ns[i]) / 1e6;
    durations[it->second].Add(ms);
  }
  for (size_t i = 0; i < stats.size(); ++i) {
    stats[i].p50_ms = durations[i].Percentile(0.5);
  }
  return stats;
}

JsonValue SpanRecorder::ChromeTrace() const {
  JsonValue events = JsonValue::Array();
  for (size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& record = records_[i];
    JsonValue event = JsonValue::Object();
    event.Set("name", JsonValue::String(record.name));
    event.Set("ph", JsonValue::String("X"));
    event.Set("ts", JsonValue::Number(static_cast<double>(record.start_ns) /
                                      1e3));
    event.Set("dur", JsonValue::Number(
                         static_cast<double>(record.end_ns - record.start_ns) /
                         1e3));
    event.Set("pid", JsonValue::Number(1));
    event.Set("tid", JsonValue::Number(1));
    JsonValue args = JsonValue::Object();
    args.Set("id", JsonValue::Number(static_cast<double>(i)));
    args.Set("parent_id", JsonValue::Number(record.parent));
    args.Set("parent", JsonValue::String(
                           record.parent < 0
                               ? ""
                               : records_[static_cast<size_t>(record.parent)]
                                     .name));
    event.Set("args", std::move(args));
    events.Push(std::move(event));
  }
  JsonValue trace = JsonValue::Object();
  trace.Set("traceEvents", std::move(events));
  trace.Set("displayTimeUnit", JsonValue::String("ms"));
  return trace;
}

}  // namespace perfbench
