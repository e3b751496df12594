// The benchmark's own test: the strict JSON parser accepts what the
// serializer writes and rejects malformed text, report-shaped documents
// round-trip exactly, and nearest-rank percentiles pick the right sample.
// Exits nonzero on the first failed check.

#include <cmath>
#include <cstdio>
#include <string>

#include "json.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void RoundTrips(const perfbench::JsonValue& value, const std::string& what) {
  std::string text = perfbench::Serialize(value);
  ks::Result<perfbench::JsonValue> parsed = perfbench::ParseJson(text);
  Check(parsed.ok() && *parsed == value, what + " round-trips: " + text);
}

void TestRoundTrip() {
  using perfbench::JsonValue;
  JsonValue metrics = JsonValue::Object();
  for (double value : {0.0, 1.0, -3.5, 0.1, 1e-9, 123456789.123456789,
                       9007199254740992.0, 1e300, 2.0 / 3.0}) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(value));
    entry.Set("unit", JsonValue::String("ms"));
    metrics.Set("m" + std::to_string(metrics.members().size()),
                std::move(entry));
  }
  JsonValue summary = JsonValue::Object();
  summary.Set("correct", JsonValue::Bool(true));
  summary.Set("attempted", JsonValue::Number(1000));
  summary.Set("failed", JsonValue::Number(0));
  summary.Set("metrics", std::move(metrics));
  RoundTrips(summary, "summary line");

  JsonValue strings = JsonValue::Array();
  for (const char* text :
       {"", "plain", "quote \" backslash \\ slash /", "line\nbreak\ttab\r",
        "\x01\x1f control", "utf-8 \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80"}) {
    strings.Push(JsonValue::String(text));
  }
  strings.Push(JsonValue());
  strings.Push(JsonValue::Bool(false));
  strings.Push(JsonValue::Array());
  strings.Push(JsonValue::Object());
  RoundTrips(strings, "strings and scalars");

  perfbench::SpanRecorder recorder;
  recorder.set_enabled(true);
  {
    PERFBENCH_SPAN(&recorder, "outer");
    PERFBENCH_SPAN(&recorder, "inner \"quoted\"");
  }
  RoundTrips(recorder.ChromeTrace(), "chrome trace");
  Check(recorder.records().size() == 2 && recorder.records()[1].parent == 0,
        "inner span's parent is the outer span");
  std::vector<perfbench::LayerStat> stats = recorder.Aggregate();
  Check(stats.size() == 2 && stats[0].self_ms <= stats[0].total_ms &&
            std::fabs(stats[0].total_ms - stats[0].self_ms -
                      stats[1].total_ms) < 1e-9,
        "outer self time excludes its child");

  Check(perfbench::Serialize(JsonValue::Number(std::nan(""))) == "null",
        "NaN serializes as null");
}

void TestParser() {
  for (const char* good :
       {"0", "-0", "1.5e3", "[]", "{}", " {\"a\" : [1, 2, {\"b\": null}]} ",
        "\"\\u00e9\\ud83d\\ude00\"", "true"}) {
    Check(perfbench::ParseJson(good).ok(), std::string("accepts ") + good);
  }
  for (const char* bad :
       {"", "[1,]", "{\"a\":1,}", "01", "1.", ".5", "+1", "NaN", "Infinity",
        "[1 2]", "{\"a\" 1}", "{a:1}", "\"unterminated", "\"tab\there\"",
        "\"\\x\"", "\"\\ud800\"", "\"\\udc00\"", "tru", "{} {}", "[",
        "1e999", "'single'"}) {
    Check(!perfbench::ParseJson(bad).ok(), std::string("rejects ") + bad);
  }
  ks::Result<perfbench::JsonValue> nested =
      perfbench::ParseJson(std::string(100, '[') + std::string(100, ']'));
  Check(!nested.ok(), "rejects nesting deeper than the limit");
  ks::Result<perfbench::JsonValue> escaped =
      perfbench::ParseJson("\"\\ud83d\\ude00\"");
  Check(escaped.ok() && escaped->string() == "\xf0\x9f\x98\x80",
        "surrogate pair decodes to UTF-8");
}

void TestPercentiles() {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);
  }
  Check(perfbench::NearestRank(values, 0.5) == 50, "p50 of 1..100 is 50");
  Check(perfbench::NearestRank(values, 0.9) == 90, "p90 of 1..100 is 90");
  Check(perfbench::NearestRank(values, 0.99) == 99, "p99 of 1..100 is 99");
  Check(perfbench::NearestRank(values, 1.0) == 100, "p100 is the max");
  Check(perfbench::NearestRank({7}, 0.99) == 7, "one sample");
  Check(perfbench::NearestRank({}, 0.5) == 0, "no samples");
  Check(perfbench::NearestRank({1, 2, 3, 4}, 0.5) == 2,
        "even count takes the lower middle");
  perfbench::Samples samples;
  samples.Add(3);
  samples.Add(1);
  samples.Add(2);
  Check(samples.count() == 3 && samples.Percentile(0.5) == 2,
        "Samples keeps raw values");
}

}  // namespace

int main() {
  TestRoundTrip();
  TestParser();
  TestPercentiles();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
