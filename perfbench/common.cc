#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>

#include "base/metrics.h"
#include "kanalyze/kanalyze.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

namespace {

double ProcStatusMb(const char* field) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) {
    return 0.0;
  }
  char line[256];
  double mb = 0.0;
  size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      mb = std::strtod(line + len + 1, nullptr) / 1024.0;  // kB
      break;
    }
  }
  std::fclose(file);
  return mb;
}

}  // namespace

double PeakRssMb() { return ProcStatusMb("VmHWM"); }
double CurrentRssMb() { return ProcStatusMb("VmRSS"); }

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ull));
  return rng.Next();
}

std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return order;
}

ks::Result<std::vector<CveInput>> CorpusInputs() {
  std::vector<CveInput> inputs;
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    KS_ASSIGN_OR_RETURN(std::string patch, corpus::AmendedPatchFor(vuln));
    inputs.push_back(CveInput{&vuln, std::move(patch)});
  }
  return inputs;
}

std::vector<const CveInput*> DrawPlainCves(const std::vector<CveInput>& all,
                                           size_t count, uint64_t seed) {
  std::vector<const CveInput*> plain;
  for (const CveInput& input : all) {
    if (!input.vuln->needs_custom_code) {
      plain.push_back(&input);
    }
  }
  std::vector<const CveInput*> drawn;
  std::set<std::string> units;
  for (size_t index : Permutation(plain.size(), seed)) {
    if (drawn.size() == count) {
      break;
    }
    const corpus::Vulnerability& vuln = *plain[index]->vuln;
    bool overlaps = false;
    for (const corpus::Edit& edit : vuln.edits) {
      overlaps = overlaps || units.count(edit.path) != 0;
    }
    if (overlaps) {
      continue;
    }
    for (const corpus::Edit& edit : vuln.edits) {
      units.insert(edit.path);
    }
    drawn.push_back(plain[index]);
  }
  return drawn;
}

ks::Result<ksplice::CreateResult> CreatePackage(const CveInput& input,
                                                kcc::ObjectCache* cache) {
  ksplice::CreateOptions options;
  options.compile = corpus::RunBuildOptions();
  options.compile.cache = cache;
  options.id = input.vuln->cve;
  options.lint = ksplice::LintMode::kOff;
  return ksplice::CreateUpdate(corpus::KernelSource(), input.patch, options);
}

ImageLayout LayoutOf(const kvm::Machine& machine) {
  ImageLayout layout;
  layout.base = machine.config().kernel_base;
  layout.end = machine.kernel_end();
  // The linker lays out all text first, then data and bss.
  layout.text_end = layout.end;
  for (const kelf::LinkedSymbol& symbol : machine.Kallsyms()) {
    if (symbol.kind == kelf::SymbolKind::kObject &&
        symbol.address >= layout.base && symbol.address < layout.text_end) {
      layout.text_end = symbol.address;
    }
  }
  return layout;
}

std::vector<uint8_t> ReadImage(const kvm::Machine& machine, uint32_t begin,
                               uint32_t end) {
  ks::Result<std::vector<uint8_t>> bytes =
      machine.ReadBytes(begin, end - begin);
  return bytes.ok() ? std::move(bytes).value() : std::vector<uint8_t>{};
}

CounterMap WorkCounterSnapshot() {
  static const char* const kPrefixes[] = {
      "kcc.",       "prepost.",          "runpre.",
      "kanalyze.",  "kvm.instructions",  "kvm.context_switches",
      "ksplice.rendezvous.", "fleet.",
  };
  CounterMap out;
  for (const auto& [name, value] : ks::Metrics().CounterValues()) {
    for (const char* prefix : kPrefixes) {
      if (name.rfind(prefix, 0) == 0) {
        out[name] = value;
        break;
      }
    }
  }
  return out;
}

CounterMap CounterDelta(const CounterMap& before, const CounterMap& after) {
  CounterMap delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

void WorkloadReport::Fail(const std::string& message) {
  ++failed;
  if (violations.size() < 16) {
    violations.push_back(message);
  }
}

const Metric* WorkloadReport::Find(const std::string& name) const {
  for (const std::vector<Metric>* list : {&end_to_end, &per_layer}) {
    for (const Metric& metric : *list) {
      if (metric.name == name) {
        return &metric;
      }
    }
  }
  return nullptr;
}

void LayerSamples::Report(WorkloadReport* report, const std::string& name,
                          const std::string& metric,
                          const std::string& unit) const {
  auto it = samples_.find(name);
  if (it == samples_.end()) {
    report->AddLayer(metric, 0.0, unit, 0);
  } else {
    report->AddLayer(metric, it->second.Percentile(0.5), unit,
                     it->second.count());
  }
}

void LayerSamples::AddApplyStages(const ksplice::ApplyReport& apply) {
  static const std::map<std::string, std::string> kStageLayer = {
      {"prepare", "txn.prepare_ms"}, {"match", "runpre.match_ms"},
      {"load", "txn.load_ms"},       {"rendezvous", "rendezvous.ms"},
      {"commit", "txn.commit_ms"},
  };
  for (const ksplice::StageTiming& stage : apply.stages) {
    auto it = kStageLayer.find(stage.stage);
    if (it != kStageLayer.end()) {
      Add(it->second, static_cast<double>(stage.wall_ns) / 1e6);
    }
  }
}

void AddCounterLayers(WorkloadReport* report, const ReportCounts& counts) {
  const CounterMap& c = report->work_counters;
  auto get = [&](const char* name) -> double {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  report->AddLayer("kcc.compiles", get("kcc.objcache.misses"), "count");
  report->AddLayer("prepost.units_rebuilt", get("prepost.units_rebuilt"),
                   "count");
  report->AddLayer("kanalyze.functions_scanned",
                   get("kanalyze.functions_scanned"), "count");
  report->AddLayer("kanalyze.insns_decoded",
                   static_cast<double>(counts.insns_decoded), "count");
  report->AddLayer("kanalyze.summary_hit_ratio",
                   ratio(get("kanalyze.summary.cache_hits"),
                         get("kanalyze.summary.cache_hits") +
                             get("kanalyze.summary.cache_misses")),
                   "ratio");
  report->AddLayer("runpre.candidates_tried", get("runpre.candidates_tried"),
                   "count");
  report->AddLayer("runpre.bytes_canonicalized",
                   get("runpre.index.pre_bytes_canonicalized") +
                       get("runpre.index.run_bytes_canonicalized"),
                   "bytes");
  report->AddLayer("runpre.index_prune_ratio",
                   ratio(get("runpre.index.misses"),
                         get("runpre.index.hits") + get("runpre.index.misses")),
                   "ratio");
  double node_applies = get("fleet.nodes_patched") +
                        get("fleet.nodes_skipped_stale") +
                        get("fleet.nodes_failed");
  report->AddLayer("runpre.stale_refusal_frac",
                   ratio(get("fleet.nodes_skipped_stale"), node_applies),
                   "ratio");
  report->AddLayer("rendezvous.attempts_per_apply",
                   ratio(static_cast<double>(counts.apply_attempts),
                         static_cast<double>(counts.applies)),
                   "ratio");
  report->AddLayer("rendezvous.retry_ticks",
                   get("ksplice.rendezvous.backoff_ticks"), "ticks");
  report->AddLayer("kvm.instructions", get("kvm.instructions"), "count");
  report->AddLayer("kvm.context_switches", get("kvm.context_switches"),
                   "count");
  report->AddLayer("watchdog.samples",
                   static_cast<double>(counts.watchdog_samples), "count");
  report->AddLayer("fleet.patched", get("fleet.nodes_patched"), "count");
  report->AddLayer("fleet.skipped_stale", get("fleet.nodes_skipped_stale"),
                   "count");
  report->AddLayer("fleet.already_applied",
                   get("fleet.nodes_already_applied"), "count");
}

ks::Result<std::vector<ksplice::UpdatePackage>> BuildPackages(
    const std::vector<const CveInput*>& drawn, SpanRecorder* spans,
    LayerSamples* layers) {
  kcc::ObjectCache cache;
  std::vector<ksplice::UpdatePackage> packages;
  for (const CveInput* input : drawn) {
    uint64_t start = NowNs();
    ks::Result<ksplice::CreateResult> created = [&] {
      PERFBENCH_SPAN(spans, "create");
      return CreatePackage(*input, &cache);
    }();
    if (!created.ok()) {
      return ks::Status(created.status()).WithContext(input->vuln->cve);
    }
    double create_ms = MsSince(start);
    double prepost_ms =
        static_cast<double>(created->report.prepost_wall_ns) / 1e6;
    layers->Add("create.ms", create_ms);
    layers->Add("prepost.ms", prepost_ms);
    layers->Add("create.self_ms", create_ms - prepost_ms);
    start = NowNs();
    ks::Result<ksplice::LintReport> lint = [&] {
      PERFBENCH_SPAN(spans, "kanalyze");
      kanalyze::AnalyzeOptions options;
      options.cache = &cache;
      return kanalyze::AnalyzePackage(created->package, options);
    }();
    layers->Add("kanalyze.ms", MsSince(start));
    if (!lint.ok()) {
      return ks::Status(lint.status()).WithContext(input->vuln->cve);
    }
    packages.push_back(std::move(created->package));
  }
  return packages;
}

LoopClock::LoopClock(double seconds, uint64_t min_samples)
    : start_ns_(NowNs()), seconds_(seconds), min_samples_(min_samples) {}

bool LoopClock::Done(uint64_t samples) const {
  double elapsed = static_cast<double>(NowNs() - start_ns_) / 1e9;
  if (elapsed >= 2.0 * seconds_) {
    return true;
  }
  return elapsed >= seconds_ && samples >= min_samples_;
}

}  // namespace perfbench
