// bench_runpre_matching: cost of run-pre matching (§4.3), which "passes
// over every byte of the pre code". Measures MatchUnit throughput against
// synthetic compilation units of increasing size and relocation density,
// and reports bytes matched per second.
//
// Every benchmark runs in two modes, selected by the second argument
// (MatcherOptions::decode_once): 1 = the production matcher, which decodes
// each pre section and candidate once per unit, 0 = the linear oracle that
// decodes and walks every candidate per attempt. Match decisions are
// identical; the headline comparison is pre_bytes_walked (linear) against
// the decode-once pre/run_bytes_canonicalized counters.
//
// Reported work counts (bytes matched, relocation inversions, candidate
// attempts) are read back from the "runpre." counters the matcher
// publishes to the metrics registry, not recomputed locally.

#include <benchmark/benchmark.h>

#include "base/metrics.h"
#include "base/strings.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "ksplice/runpre.h"
#include "kvm/machine.h"

namespace {

// The per-iteration mean growth of a registry counter across the timed
// loop (the counters are process-wide monotonic aggregates).
struct RunpreDeltas {
  uint64_t bytes_matched = 0;
  uint64_t pre_bytes_walked = 0;
  uint64_t candidates_tried = 0;
  uint64_t reloc_sites_inverted = 0;
  uint64_t ambiguity_deferrals = 0;
  uint64_t pre_bytes_canonicalized = 0;
  uint64_t run_bytes_canonicalized = 0;

  static RunpreDeltas Snapshot() {
    RunpreDeltas s;
    s.bytes_matched =
        ks::Metrics().GetCounter("runpre.bytes_matched").value();
    s.pre_bytes_walked =
        ks::Metrics().GetCounter("runpre.pre_bytes_walked").value();
    s.candidates_tried =
        ks::Metrics().GetCounter("runpre.candidates_tried").value();
    s.reloc_sites_inverted =
        ks::Metrics().GetCounter("runpre.reloc_sites_inverted").value();
    s.ambiguity_deferrals =
        ks::Metrics().GetCounter("runpre.ambiguity_deferrals").value();
    s.pre_bytes_canonicalized =
        ks::Metrics()
            .GetCounter("runpre.index.pre_bytes_canonicalized")
            .value();
    s.run_bytes_canonicalized =
        ks::Metrics()
            .GetCounter("runpre.index.run_bytes_canonicalized")
            .value();
    return s;
  }
};

ksplice::MatcherOptions ModeOptions(benchmark::State& state) {
  ksplice::MatcherOptions options;
  options.decode_once = state.range(1) != 0;
  return options;
}

// Emits the per-iteration work counters common to both benches.
void ReportDeltas(benchmark::State& state, const RunpreDeltas& before,
                  const RunpreDeltas& after) {
  uint64_t iterations = static_cast<uint64_t>(state.iterations());
  state.counters["pre_bytes_walked"] = static_cast<double>(
      (after.pre_bytes_walked - before.pre_bytes_walked) / iterations);
  state.counters["pre_bytes_canonicalized"] = static_cast<double>(
      (after.pre_bytes_canonicalized - before.pre_bytes_canonicalized) /
      iterations);
  state.counters["run_bytes_canonicalized"] = static_cast<double>(
      (after.run_bytes_canonicalized - before.run_bytes_canonicalized) /
      iterations);
  state.counters["candidates_tried"] = static_cast<double>(
      (after.candidates_tried - before.candidates_tried) / iterations);
}

// Generates a unit with `n` functions that call each other and touch
// shared globals — plenty of relocations for the matcher to invert.
std::string MakeUnit(int n) {
  std::string src = "int shared_a = 1;\nint shared_b = 2;\n";
  for (int i = 0; i < n; ++i) {
    src += ks::StrPrintf(
        "int fn_%d(int x) {\n"
        "  int acc = x + %d;\n"
        "  shared_a = shared_a + acc;\n"
        "  if (acc > 100) {\n"
        "    shared_b = shared_b + 1;\n"
        "    return shared_b;\n"
        "  }\n"
        "  while (acc > 3) {\n"
        "    acc = acc - 3;\n"
        "  }\n"
        "%s"
        "  return acc + shared_a;\n"
        "}\n",
        i, i * 7,
        i > 0 ? ks::StrPrintf("  acc = acc + fn_%d(acc);\n", i - 1).c_str()
              : "");
  }
  return src;
}

void BM_MatchUnit(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  kdiff::SourceTree tree;
  tree.Write("unit.kc", MakeUnit(n));

  kcc::CompileOptions run_options;  // monolithic, like a real kernel
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, run_options);
  if (!objects.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  kvm::MachineConfig config;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  if (!machine.ok()) {
    state.SkipWithError("boot failed");
    return;
  }

  kcc::CompileOptions pre_options;
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> pre =
      kcc::CompileUnit(tree, "unit.kc", pre_options);
  if (!pre.ok()) {
    state.SkipWithError("pre build failed");
    return;
  }
  ksplice::RunPreMatcher matcher(**machine, nullptr, ModeOptions(state));
  RunpreDeltas before = RunpreDeltas::Snapshot();
  for (auto _ : state) {
    ks::Result<ksplice::UnitMatch> match = matcher.MatchUnit(*pre);
    if (!match.ok()) {
      state.SkipWithError(match.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(match);
  }
  RunpreDeltas after = RunpreDeltas::Snapshot();
  uint64_t iterations = static_cast<uint64_t>(state.iterations());
  state.SetBytesProcessed(
      static_cast<int64_t>(after.bytes_matched - before.bytes_matched));
  state.counters["functions"] = n;
  state.counters["bytes_matched"] = static_cast<double>(
      (after.bytes_matched - before.bytes_matched) / iterations);
  state.counters["reloc_inversions"] = static_cast<double>(
      (after.reloc_sites_inverted - before.reloc_sites_inverted) /
      iterations);
  ReportDeltas(state, before, after);
}
BENCHMARK(BM_MatchUnit)
    ->ArgNames({"functions", "decode_once"})
    ->Args({4, 1})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({128, 0});

// Ambiguity resolution cost: many same-named candidates force the matcher
// to try each (fixpoint disambiguation). The bodies differ only in imm32
// constants, so every copy is verified; the decode-once win is that each
// candidate's run code is decoded once for all sections and passes.
void BM_MatchAmbiguous(benchmark::State& state) {
  int copies = static_cast<int>(state.range(0));
  kdiff::SourceTree tree;
  // `copies` units, each with a local symbol `handler` of identical name
  // but different body constants.
  for (int i = 0; i < copies; ++i) {
    tree.Write(ks::StrPrintf("unit%d.kc", i),
               ks::StrPrintf("static int handler(int x) {\n"
                             "  return x * %d + %d;\n}\n"
                             "int entry_%d(int x) {\n"
                             "  return handler(x) + handler(x + 1) + "
                             "handler(x + 2) + handler(x + 3) + "
                             "handler(x + 4) + handler(x + 5);\n}\n",
                             i + 3, i + 11, i));
  }
  kcc::CompileOptions run_options;
  run_options.inline_threshold = 0;  // keep the calls real
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, run_options);
  if (!objects.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  kvm::MachineConfig config;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  if (!machine.ok()) {
    state.SkipWithError("boot failed");
    return;
  }
  kcc::CompileOptions pre_options = run_options;
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> pre =
      kcc::CompileUnit(tree, "unit0.kc", pre_options);
  if (!pre.ok()) {
    state.SkipWithError("pre build failed");
    return;
  }
  ksplice::RunPreMatcher matcher(**machine, nullptr, ModeOptions(state));
  RunpreDeltas before = RunpreDeltas::Snapshot();
  for (auto _ : state) {
    ks::Result<ksplice::UnitMatch> match = matcher.MatchUnit(*pre);
    if (!match.ok()) {
      state.SkipWithError(match.status().message().c_str());
      return;
    }
  }
  RunpreDeltas after = RunpreDeltas::Snapshot();
  uint64_t iterations = static_cast<uint64_t>(state.iterations());
  state.counters["same_named_candidates"] = copies;
  state.counters["ambiguity_deferrals"] = static_cast<double>(
      (after.ambiguity_deferrals - before.ambiguity_deferrals) /
      iterations);
  ReportDeltas(state, before, after);
}
BENCHMARK(BM_MatchAmbiguous)
    ->ArgNames({"copies", "decode_once"})
    ->Args({2, 1})
    ->Args({8, 1})
    ->Args({32, 1})
    ->Args({2, 0})
    ->Args({8, 0})
    ->Args({32, 0});

}  // namespace

BENCHMARK_MAIN();
