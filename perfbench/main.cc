// lifecycle_bench: the update-lifecycle benchmark's driver binary.
//
//   lifecycle_bench --workload cve_pipeline|fleet_rollout|busy_kernel
//                   --seed N --seconds S --trace 0|1
//                   [--git-rev REV] [--trace-out FILE] [--report-out FILE]
//
// Runs one workload in this process (so VmHWM is that workload's peak),
// checks the program's outputs as it goes, prints a readable report, a
// full JSON report line, and as the last line the summary object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// without tracing, the per-layer metrics with it. Every JSON text is parsed
// back with the strict in-tree parser before it is printed. Exits 1 when
// any check failed, 2 on bad arguments, 3 when the run itself broke.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "base/strings.h"
#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// The metric names BENCHMARK.json declares. Each workload reports all of
// them; the lists must match that file.
const char* const kEndToEnd[] = {
    "setup_s",
    "peak_rss_mb",
    "best_updates_per_s",
};
const char* const kPerLayer[] = {
    "kcc.compiles",
    "kcc.build_tree_ms",
    "prepost.ms",
    "prepost.units_rebuilt",
    "create.ms",
    "create.self_ms",
    "kanalyze.ms",
    "kanalyze.functions_scanned",
    "kanalyze.insns_decoded",
    "kanalyze.summary_hit_ratio",
    "runpre.candidates_tried",
    "runpre.bytes_canonicalized",
    "runpre.index_prune_ratio",
    "runpre.stale_refusal_frac",
    "undo.ms",
    "rendezvous.attempts_per_apply",
    "rendezvous.retry_ticks",
    "kvm.boot_ms_per_node",
    "kvm.rss_mb_per_node",
    "kvm.instructions",
    "kvm.context_switches",
    "watchdog.samples",
    "fleet.patched",
    "fleet.skipped_stale",
    "fleet.already_applied",
};

struct Args {
  RunConfig run;
  std::string git_rev = "unknown";
  std::string trace_out;
  std::string report_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->run.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->run.seconds > 0 && args->run.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->run.trace = value == "1";
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--report-out") {
      args->report_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

JsonValue MetricJson(const Metric& metric) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::String(metric.name));
  out.Set("value", JsonValue::Number(metric.value));
  out.Set("unit", JsonValue::String(metric.unit));
  if (metric.samples != 0) {
    out.Set("samples", JsonValue::Number(static_cast<double>(metric.samples)));
  }
  return out;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  return hash;
}

double OverheadPct(const WorkloadReport& report) {
  return report.traced_rate > 0
             ? (report.untraced_rate / report.traced_rate - 1.0) * 100.0
             : 0.0;
}

JsonValue FullReport(const Args& args, const WorkloadReport& report) {
  JsonValue out = JsonValue::Object();
  out.Set("benchmark", JsonValue::String("ksplice-update-lifecycle"));
  out.Set("workload", JsonValue::String(report.workload));
  out.Set("seed", JsonValue::Number(static_cast<double>(args.run.seed)));
  out.Set("seconds", JsonValue::Number(args.run.seconds));
  out.Set("trace", JsonValue::Bool(args.run.trace));
  JsonValue meta = JsonValue::Object();
  meta.Set("git_rev", JsonValue::String(args.git_rev));
  meta.Set("nproc", JsonValue::Number(std::thread::hardware_concurrency()));
  meta.Set("build_type", JsonValue::String(PERFBENCH_BUILD_TYPE));
  out.Set("meta", std::move(meta));
  out.Set("shape", report.shape);
  out.Set("correct", JsonValue::Bool(report.failed == 0));
  out.Set("attempted",
          JsonValue::Number(static_cast<double>(report.attempted)));
  out.Set("failed", JsonValue::Number(static_cast<double>(report.failed)));
  JsonValue violations = JsonValue::Array();
  for (const std::string& violation : report.violations) {
    violations.Push(JsonValue::String(violation));
  }
  out.Set("violations", std::move(violations));
  JsonValue e2e = JsonValue::Array();
  for (const Metric& metric : report.end_to_end) {
    e2e.Push(MetricJson(metric));
  }
  out.Set("end_to_end", std::move(e2e));
  if (args.run.trace) {
    JsonValue layers = JsonValue::Array();
    for (const Metric& metric : report.per_layer) {
      layers.Push(MetricJson(metric));
    }
    out.Set("per_layer", std::move(layers));
    JsonValue spans = JsonValue::Array();
    for (const LayerStat& stat : report.layers) {
      JsonValue row = JsonValue::Object();
      row.Set("span", JsonValue::String(stat.name));
      row.Set("count", JsonValue::Number(static_cast<double>(stat.count)));
      row.Set("total_ms", JsonValue::Number(stat.total_ms));
      row.Set("self_ms", JsonValue::Number(stat.self_ms));
      row.Set("p50_ms", JsonValue::Number(stat.p50_ms));
      spans.Push(std::move(row));
    }
    out.Set("spans", std::move(spans));
    JsonValue overhead = JsonValue::Object();
    overhead.Set("untraced_updates_per_s",
                 JsonValue::Number(report.untraced_rate));
    overhead.Set("traced_updates_per_s", JsonValue::Number(report.traced_rate));
    overhead.Set("overhead_pct", JsonValue::Number(OverheadPct(report)));
    out.Set("tracing_overhead", std::move(overhead));
  }
  JsonValue counters = JsonValue::Object();
  std::string canonical;
  for (const auto& [name, value] : report.work_counters) {
    counters.Set(name, JsonValue::Number(static_cast<double>(value)));
    canonical += name + "=" + std::to_string(value) + "\n";
  }
  JsonValue block = JsonValue::Object();
  block.Set("covers", JsonValue::String(report.reference_pass));
  block.Set("digest", JsonValue::String(ks::StrPrintf(
                          "%016llx", static_cast<unsigned long long>(
                                         Fnv1a(canonical)))));
  block.Set("counters", std::move(counters));
  out.Set("work_counters", std::move(block));
  return out;
}

// The last line: exactly correct/attempted/failed/metrics.
ks::Result<JsonValue> Summary(const Args& args, const WorkloadReport& report) {
  JsonValue metrics = JsonValue::Object();
  auto add = [&](const char* name) -> ks::Status {
    const Metric* metric = report.Find(name);
    if (metric == nullptr) {
      return ks::Internal(std::string("workload did not report ") + name);
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(metric->value));
    entry.Set("unit", JsonValue::String(metric->unit));
    metrics.Set(name, std::move(entry));
    return ks::OkStatus();
  };
  if (args.run.trace) {
    for (const char* name : kPerLayer) {
      KS_RETURN_IF_ERROR(add(name));
    }
  } else {
    for (const char* name : kEndToEnd) {
      KS_RETURN_IF_ERROR(add(name));
    }
  }
  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue::Bool(report.failed == 0));
  out.Set("attempted",
          JsonValue::Number(static_cast<double>(report.attempted)));
  out.Set("failed", JsonValue::Number(static_cast<double>(report.failed)));
  out.Set("metrics", std::move(metrics));
  return out;
}

// Serializes `value` and proves the text parses back to the same value.
ks::Result<std::string> RoundTrip(const JsonValue& value) {
  std::string text = Serialize(value);
  KS_ASSIGN_OR_RETURN(JsonValue parsed, ParseJson(text));
  if (!(parsed == value)) {
    return ks::Internal("JSON output does not parse back to itself");
  }
  return text;
}

void PrintMetric(const Metric& metric) {
  std::printf("  %-32s %14.6g %-8s", metric.name.c_str(), metric.value,
              metric.unit.c_str());
  if (metric.samples != 0) {
    std::printf(" (n=%llu)", static_cast<unsigned long long>(metric.samples));
  }
  std::printf("\n");
}

void PrintReadable(const Args& args, const WorkloadReport& report) {
  std::printf("== %s  seed %llu  %.0f s  tracing %s ==\n",
              report.workload.c_str(),
              static_cast<unsigned long long>(args.run.seed), args.run.seconds,
              args.run.trace ? "on (odd passes)" : "off");
  std::printf("git %s, nproc %u, build %s\n", args.git_rev.c_str(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  std::printf("shape: %s\n", Serialize(report.shape).c_str());
  std::printf("end-to-end:\n");
  for (const Metric& metric : report.end_to_end) {
    PrintMetric(metric);
  }
  if (args.run.trace) {
    std::printf("per-layer:\n");
    for (const Metric& metric : report.per_layer) {
      PrintMetric(metric);
    }
    std::printf("spans: %-24s %8s %12s %12s %10s\n", "name", "count",
                "total ms", "self ms", "p50 ms");
    for (const LayerStat& stat : report.layers) {
      std::printf("       %-24s %8llu %12.3f %12.3f %10.4f\n",
                  stat.name.c_str(),
                  static_cast<unsigned long long>(stat.count), stat.total_ms,
                  stat.self_ms, stat.p50_ms);
    }
    std::printf("tracing overhead: %.2f%% (%.2f untraced vs %.2f traced "
                "updates/s, interleaved passes)\n",
                OverheadPct(report), report.untraced_rate,
                report.traced_rate);
  }
  std::printf("correctness: %llu failed of %llu attempted operations\n",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& violation : report.violations) {
    std::printf("  VIOLATION: %s\n", violation.c_str());
  }
  std::printf("work counters (%s):\n", report.reference_pass.c_str());
  for (const auto& [name, value] : report.work_counters) {
    if (value != 0) {
      std::printf("  %-48s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  // Serve large blocks (machine images) with mmap and give them back on
  // free, so VmHWM and per-boot RSS deltas measure live memory, not how far
  // glibc's adaptive threshold let the heap grow.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lifecycle_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--git-rev REV] [--trace-out FILE] "
                 "[--report-out FILE]\n");
    return 2;
  }
  WorkloadReport report;
  report.workload = args.run.workload;
  ks::Status status;
  if (args.run.workload == "cve_pipeline") {
    status = RunCvePipeline(args.run, &report);
  } else if (args.run.workload == "fleet_rollout") {
    status = RunFleetRollout(args.run, &report);
  } else if (args.run.workload == "busy_kernel") {
    status = RunBusyKernel(args.run, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.run.workload.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.run.workload.c_str(),
                 status.ToString().c_str());
    return 3;
  }

  // Metrics every workload shares.
  report.end_to_end.insert(
      report.end_to_end.begin(),
      {Metric{"setup_s", report.setup_s.Percentile(0.5), "s",
              report.setup_s.count()},
       Metric{"peak_rss_mb", PeakRssMb(), "MB", 0},
       Metric{"ops_failed_frac",
              report.attempted == 0
                  ? 1.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              "ratio", 0}});
  if (report.attempted == 0) {
    report.Fail("no operation was attempted");
  }

  ks::Result<std::string> full = RoundTrip(FullReport(args, report));
  ks::Result<JsonValue> summary = Summary(args, report);
  ks::Result<std::string> last =
      summary.ok() ? RoundTrip(*summary) : ks::Result<std::string>(
                                               summary.status());
  if (!full.ok() || !last.ok()) {
    const ks::Status& error = full.ok() ? last.status() : full.status();
    std::fprintf(stderr, "report: %s\n", error.ToString().c_str());
    return 3;
  }
  if (!args.report_out.empty() && !WriteFile(args.report_out, *full)) {
    std::fprintf(stderr, "could not write %s\n", args.report_out.c_str());
    return 3;
  }
  if (args.run.trace && !args.trace_out.empty()) {
    ks::Result<std::string> trace = RoundTrip(report.chrome_trace);
    if (!trace.ok() || !WriteFile(args.trace_out, *trace)) {
      std::fprintf(stderr, "could not write the trace to %s\n",
                   args.trace_out.c_str());
      return 3;
    }
    std::printf("chrome trace: %s\n", args.trace_out.c_str());
  }

  PrintReadable(args, report);
  std::printf("%s\n%s\n", full->c_str(), last->c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
