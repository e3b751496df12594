// Shared pieces of the update-lifecycle benchmark: clocks and memory
// readings, seeded input generation, the kernel-image oracle, registry
// counter deltas, and the report every workload fills.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "corpus/corpus.h"
#include "json.h"
#include "kcc/objcache.h"
#include "ksplice/create.h"
#include "kvm/machine.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

uint64_t NowNs();
double MsSince(uint64_t start_ns);
// VmHWM / VmRSS of this process in MiB (0 when /proc is unreadable).
double PeakRssMb();
double CurrentRssMb();

// SplitMix64 stream: every seeded choice the benchmark makes comes from one.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Derives an independent seed for stream `stream` of run seed `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);
// Seeded Fisher-Yates shuffle of 0..n-1.
std::vector<size_t> Permutation(size_t n, uint64_t seed);

// One corpus CVE and the patch the benchmark feeds CreateUpdate: the
// original fix, or for the eight Table-1 entries the amended fix whose
// ksplice hooks carry the data changes.
struct CveInput {
  const corpus::Vulnerability* vuln = nullptr;
  std::string patch;
};
ks::Result<std::vector<CveInput>> CorpusInputs();
// `count` entries drawn by seed from the CVEs without custom code (their
// updates touch no live data, so undo must restore the whole image), no
// two patching the same source file. Every package is built from the
// pristine tree, so two fixes to one file cannot stack: run-pre matching
// would rightly refuse the second against the first one's code.
std::vector<const CveInput*> DrawPlainCves(const std::vector<CveInput>& all,
                                           size_t count, uint64_t seed);

// CreateUpdate as `ksplice_tool create` runs it cold: run-build compile
// options and `cache` as the object cache; lint is left to AnalyzePackage.
ks::Result<ksplice::CreateResult> CreatePackage(const CveInput& input,
                                                kcc::ObjectCache* cache);

// Creates and lints each of `drawn` with one fresh object cache, as a
// distributor building a batch would, recording per-layer create and lint
// times into `layers`.
class LayerSamples;
ks::Result<std::vector<ksplice::UpdatePackage>> BuildPackages(
    const std::vector<const CveInput*>& drawn, SpanRecorder* spans,
    LayerSamples* layers);

// Where the kernel's text ends: everything Ksplice writes into the image
// (trampolines) lies in [base, text_end); the rest up to `end` is data the
// guest itself writes.
struct ImageLayout {
  uint32_t base = 0;
  uint32_t text_end = 0;
  uint32_t end = 0;
};
// Computed from kallsyms; call before any module is loaded.
ImageLayout LayoutOf(const kvm::Machine& machine);
std::vector<uint8_t> ReadImage(const kvm::Machine& machine, uint32_t begin,
                               uint32_t end);

// Deltas of the registry counters that make up the work-counter block.
using CounterMap = std::map<std::string, uint64_t>;
CounterMap WorkCounterSnapshot();
CounterMap CounterDelta(const CounterMap& before, const CounterMap& after);

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

// One reported number. `samples` is the number of raw observations behind
// a percentile or median (0 for rates, counts and ratios).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

struct WorkloadReport {
  std::string workload;
  JsonValue shape = JsonValue::Object();  // sizes, threads, loop shape
  Samples setup_s;                        // one per repeated set-up
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  // the first few failure messages

  // Every end-to-end metric the workload measures, issue names included.
  std::vector<Metric> end_to_end;
  // Per-layer metrics (traced runs).
  std::vector<Metric> per_layer;
  // Registry counter deltas over the reference pass (fixed work, so equal
  // across runs with the same seed).
  CounterMap work_counters;
  std::string reference_pass;  // what the counter block covers

  // Traced runs: span aggregates and the in-process overhead estimate.
  std::vector<LayerStat> layers;
  double traced_rate = 0.0;
  double untraced_rate = 0.0;
  JsonValue chrome_trace;

  // Records a failed operation (or a correctness violation).
  void Fail(const std::string& message);
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    end_to_end.push_back(Metric{name, value, unit, samples});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit, uint64_t samples = 0) {
    per_layer.push_back(Metric{name, value, unit, samples});
  }
  const Metric* Find(const std::string& name) const;
};

// Per-layer raw samples, collected only while the span recorder is on, so
// they come from the same traced work as the span table.
class LayerSamples {
 public:
  explicit LayerSamples(const SpanRecorder* recorder) : recorder_(recorder) {}
  void Add(const std::string& name, double value) {
    if (recorder_->enabled()) {
      samples_[name].Add(value);
    }
  }
  // Exact median of `name` as a per-layer metric (0 with 0 samples).
  void Report(WorkloadReport* report, const std::string& name,
              const std::string& metric, const std::string& unit) const;
  // The run-pre match, transaction and rendezvous stage times of one apply.
  void AddApplyStages(const ksplice::ApplyReport& apply);

 private:
  const SpanRecorder* recorder_;
  std::map<std::string, Samples> samples_;
};

// Work the reference pass did that only the returned report structs show.
struct ReportCounts {
  uint64_t insns_decoded = 0;     // LintReport
  uint64_t applies = 0;           // successful applies / node applies
  uint64_t apply_attempts = 0;    // their stop_machine attempts
  uint64_t watchdog_samples = 0;  // WatchdogReport
};

// Adds the per-layer counts and ratios every workload derives from its
// work-counter block and `counts`. A layer idle in the reference pass
// reports 0.
void AddCounterLayers(WorkloadReport* report, const ReportCounts& counts);

// A deadline-bounded closed loop: keeps going until `seconds` have passed
// and at least `min_samples` observations exist, or until a hard cap of
// twice the time (so a much slower program still ends in bounded time).
class LoopClock {
 public:
  LoopClock(double seconds, uint64_t min_samples);
  bool Done(uint64_t samples) const;

 private:
  uint64_t start_ns_;
  double seconds_;
  uint64_t min_samples_;
};

ks::Status RunCvePipeline(const RunConfig& config, WorkloadReport* report);
ks::Status RunFleetRollout(const RunConfig& config, WorkloadReport* report);
ks::Status RunBusyKernel(const RunConfig& config, WorkloadReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
