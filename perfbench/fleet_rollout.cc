// fleet_rollout: the operator path.
//
// Set-up builds every corpus kernel release, creates and lints a fixed
// seeded draw of 16 corpus packages (no two patching one file), and boots
// a 256-node mixed-release fleet (MakeCorpusFleet, 4 MiB per node). No
// create is timed in the loop. Each pass rolls the 16 packages out one
// RunRollout at a time in a seeded order, so updates stack on every node
// (5% canary, waves of 32, no soak, serial waves), then undoes everything
// with UndoAll on each node. kcc and kanalyze are idle;
// the work is run-pre matching on every node, module loads, trampoline
// writes, rendezvous and the wave orchestration.
// Releases whose development touched a patched unit refuse the package
// (skipped_stale), which is an expected outcome.
//
// Oracles: every rollout accounts for every node (patched + skipped_stale
// + already_applied == fleet size) with no failed node and no abort; after
// UndoAll every node's kernel image is byte-identical to its set-up
// snapshot and its module arena is back to its set-up size. Fleet nodes
// run no guest code in the loop, so the whole image is compared.

#include <span>

#include "common.h"
#include "fleet/corpus_fleet.h"
#include "fleet/rollout.h"
#include "kcc/compile.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr size_t kNodes = 256;
constexpr uint32_t kNodeBytes = 4u << 20;
constexpr size_t kPackages = 16;
constexpr uint64_t kMinPauses = 1000;
constexpr uint64_t kMaxPasses = 200;
// Waves run serially. A wave fanned across every vCPU of a shared host
// lasts as long as its most contended vCPU: with max_in_flight =
// min(nproc, 4) on a 4-vCPU VM, whole runs came out 3x slower than their
// neighbours, while a node apply costs the same either way.
constexpr int kInFlight = 1;
// The package draw is fixed (this seed), so every run does the same work;
// the run seed orders the rollouts and seeds every plan.
constexpr uint64_t kDrawSeed = 2009;

struct FleetState {
  fleet::Fleet fleet;
  std::vector<ksplice::UpdatePackage> packages;
  std::vector<std::vector<uint8_t>> images;  // per node, at set-up
  std::vector<uint32_t> arena_bytes;
};

struct SetupTimes {
  Samples build_ms;
  Samples boot_ms_per_node;
  Samples rss_mb_per_node;
};

ks::Result<FleetState> SetUp(const std::vector<CveInput>& inputs,
                             uint64_t seed, SpanRecorder* spans,
                             LayerSamples* layers, SetupTimes* times) {
  PERFBENCH_SPAN(spans, "setup");
  {
    PERFBENCH_SPAN(spans, "kcc.build_tree");
    uint64_t start = NowNs();
    for (size_t i = 0; i < corpus::KernelVersions().size(); ++i) {
      KS_ASSIGN_OR_RETURN(kdiff::SourceTree tree, corpus::KernelSourceAt(i));
      KS_RETURN_IF_ERROR(
          kcc::BuildTree(tree, corpus::RunBuildOptions()).status());
    }
    times->build_ms.Add(MsSince(start));
  }
  FleetState state;
  KS_ASSIGN_OR_RETURN(
      state.packages,
      BuildPackages(DrawPlainCves(inputs, kPackages, kDrawSeed), spans,
                    layers));
  {
    PERFBENCH_SPAN(spans, "kvm.boot");
    fleet::CorpusFleetOptions options;
    options.nodes = kNodes;
    options.memory_bytes = kNodeBytes;
    options.seed = SubSeed(seed, 2);
    double rss_before = CurrentRssMb();
    uint64_t start = NowNs();
    KS_ASSIGN_OR_RETURN(state.fleet, fleet::MakeCorpusFleet(options));
    times->boot_ms_per_node.Add(MsSince(start) / kNodes);
    times->rss_mb_per_node.Add((CurrentRssMb() - rss_before) / kNodes);
  }
  for (size_t i = 0; i < state.fleet.size(); ++i) {
    const kvm::Machine& machine = state.fleet.machine(i);
    state.images.push_back(ReadImage(machine, machine.config().kernel_base,
                                     machine.kernel_end()));
    state.arena_bytes.push_back(machine.ModuleArenaBytesInUse());
  }
  return state;
}

struct LoopSamples {
  Samples undo_all_ms, pause_us;
  Samples rollout_rate;  // node applies per second of each RunRollout
  // Best RunRollout time per package, UndoAll time per node, and stop
  // window per (package, node).
  BestOf best_rollout_s, best_undo_ms, best_pause_us;
  uint64_t node_applies = 0;
};

}  // namespace

ks::Status RunFleetRollout(const RunConfig& config, WorkloadReport* report) {
  KS_ASSIGN_OR_RETURN(std::vector<CveInput> inputs, CorpusInputs());

  SpanRecorder spans;
  spans.set_enabled(config.trace);
  LayerSamples layers(&spans);
  SetupTimes setup_times;
  FleetState state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state = FleetState();  // free the previous fleet before booting again
    uint64_t start = NowNs();
    KS_ASSIGN_OR_RETURN(
        state, SetUp(inputs, config.seed, &spans, &layers, &setup_times));
    report->setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
  }

  LoopSamples untraced, traced;
  ReportCounts counts;
  LoopClock clock(config.seconds, config.trace ? 0 : kMinPauses);
  for (uint64_t pass = 0; pass < kMaxPasses; ++pass) {
    const bool reference = pass == 0;
    const bool tracing = config.trace && pass % 2 == 1;
    spans.set_enabled(tracing);
    LoopSamples& out = tracing ? traced : untraced;
    CounterMap before = WorkCounterSnapshot();
    PERFBENCH_SPAN(&spans, "fleet.pass");

    std::vector<size_t> order =
        Permutation(state.packages.size(), SubSeed(config.seed, 100 + pass));
    for (size_t k = 0; k < order.size(); ++k) {
      const ksplice::UpdatePackage& package = state.packages[order[k]];
      fleet::RolloutPlan plan;
      plan.canary_fraction = 0.05;
      plan.wave_size = 32;
      plan.max_in_flight = kInFlight;
      plan.seed = SubSeed(config.seed, (pass << 8) | k);
      uint64_t start = NowNs();
      ks::Result<ksplice::RolloutReport> rollout = [&] {
        PERFBENCH_SPAN(&spans, "fleet.rollout");
        return fleet::RunRollout(
            state.fleet, std::span<const ksplice::UpdatePackage>(&package, 1),
            plan);
      }();
      double rollout_ms = MsSince(start);
      layers.Add("fleet.rollout_ms", rollout_ms);
      if (!rollout.ok()) {
        report->attempted += kNodes;
        report->Fail("rollout " + package.id + ": " +
                     rollout.status().ToString());
        continue;
      }
      uint64_t node_applies = rollout->fleet_size - rollout->not_attempted;
      report->attempted += node_applies;
      out.node_applies += node_applies;
      out.rollout_rate.Add(static_cast<double>(node_applies) * 1e3 /
                           rollout_ms);
      out.best_rollout_s.Add(order[k], rollout_ms / 1e3);
      if (rollout->aborted) {
        report->Fail("rollout " + package.id + " aborted");
      }
      if (rollout->patched + rollout->skipped_stale +
              rollout->already_applied !=
          rollout->fleet_size) {
        report->Fail("rollout " + package.id +
                     ": node outcomes do not add up to the fleet size");
      }
      for (const ksplice::RolloutWaveReport& wave : rollout->wave_reports) {
        layers.Add("fleet.wave_ms", static_cast<double>(wave.wall_ns) / 1e6);
      }
      for (const ksplice::RolloutNodeReport& node : rollout->nodes) {
        if (node.outcome == ksplice::RolloutNodeOutcome::kFailed) {
          report->Fail("rollout " + package.id + " on " + node.node + ": " +
                       node.error);
        }
        if (node.outcome != ksplice::RolloutNodeOutcome::kPatched) {
          continue;
        }
        out.pause_us.Add(static_cast<double>(node.pause_ns) / 1e3);
        size_t node_index = static_cast<size_t>(state.fleet.IndexOf(node.node));
        out.best_pause_us.Add(order[k] * kNodes + node_index,
                              static_cast<double>(node.pause_ns) / 1e3);
        if (reference) {
          ++counts.applies;
          counts.apply_attempts += static_cast<uint64_t>(node.attempts);
        }
      }
    }

    for (size_t i = 0; i < state.fleet.size(); ++i) {
      ++report->attempted;
      uint64_t start = NowNs();
      ks::Result<std::vector<ksplice::UndoReport>> undone = [&] {
        PERFBENCH_SPAN(&spans, "fleet.undo_all");
        return state.fleet.core(i).UndoAll();
      }();
      double undo_ms = MsSince(start);
      if (!undone.ok()) {
        report->Fail("UndoAll on " + state.fleet.spec(i).id + ": " +
                     undone.status().ToString());
        continue;
      }
      out.undo_all_ms.Add(undo_ms);
      out.best_undo_ms.Add(i, undo_ms);
      layers.Add("fleet.undo_all_ms", undo_ms);
      if (!undone->empty()) {
        layers.Add("undo.ms", undo_ms / static_cast<double>(undone->size()));
      }
      PERFBENCH_SPAN(&spans, "check");
      const kvm::Machine& machine = state.fleet.machine(i);
      if (ReadImage(machine, machine.config().kernel_base,
                    machine.kernel_end()) != state.images[i]) {
        report->Fail("UndoAll on " + state.fleet.spec(i).id +
                     ": kernel image differs from set-up");
      }
      if (machine.ModuleArenaBytesInUse() != state.arena_bytes[i]) {
        report->Fail("UndoAll on " + state.fleet.spec(i).id +
                     ": module arena not reclaimed");
      }
    }
    if (reference) {
      report->work_counters = CounterDelta(before, WorkCounterSnapshot());
    }
    // A traced run needs at least one traced pass for its span table.
    if ((!config.trace || traced.node_applies > 0) &&
        clock.Done(untraced.pause_us.count())) {
      break;
    }
  }
  spans.set_enabled(false);

  report->reference_pass = "pass 0: 16 rollouts and one UndoAll per node";
  report->shape.Set("loop", JsonValue::String(
      "closed loop: per pass, RunRollout of each package in turn (stacking), "
      "then UndoAll on every node, each call issued after the previous "
      "returns"));
  report->shape.Set("threads", JsonValue::Number(kInFlight));
  report->shape.Set("nodes", JsonValue::Number(kNodes));
  report->shape.Set("node_mib", JsonValue::Number(kNodeBytes >> 20));
  report->shape.Set("packages", JsonValue::Number(kPackages));
  report->shape.Set("plan", JsonValue::String(
      "canary 5%, wave_size 32, no soak, max_in_flight 1"));
  report->shape.Set("draw_seed", JsonValue::Number(kDrawSeed));
  report->shape.Set("seed_role", JsonValue::String(
      "orders the rollouts of every pass and seeds every rollout plan"));
  report->shape.Set("setup_repeats", JsonValue::Number(kSetupRepeats));

  auto rate = [](const LoopSamples& s) {
    return s.rollout_rate.Percentile(0.5);
  };
  const LoopSamples& e2e = untraced;
  report->Add("best_updates_per_s",
              static_cast<double>(e2e.best_rollout_s.inputs() * kNodes) /
                  e2e.best_rollout_s.Sum(),
              "1/s", e2e.best_rollout_s.inputs());
  report->Add("best_undo_ms_p50", e2e.best_undo_ms.Percentile(0.5), "ms",
              e2e.best_undo_ms.inputs());
  report->Add("best_pause_us_p50", e2e.best_pause_us.Percentile(0.5), "us",
              e2e.best_pause_us.inputs());
  report->Add("undo_ms_p50", e2e.undo_all_ms.Percentile(0.5), "ms",
              e2e.undo_all_ms.count());
  report->Add("pause_us_p50", e2e.pause_us.Percentile(0.5), "us",
              e2e.pause_us.count());
  report->Add("pause_us_p99", e2e.pause_us.Percentile(0.99), "us",
              e2e.pause_us.count());
  report->Add("rollout_nodes_per_s", rate(e2e), "1/s",
              e2e.rollout_rate.count());
  report->untraced_rate = rate(untraced);
  report->traced_rate = rate(traced);

  AddCounterLayers(report, counts);
  report->AddLayer("kcc.build_tree_ms", setup_times.build_ms.Percentile(0.5),
                   "ms", setup_times.build_ms.count());
  report->AddLayer("kvm.boot_ms_per_node",
                   setup_times.boot_ms_per_node.Percentile(0.5), "ms",
                   setup_times.boot_ms_per_node.count());
  report->AddLayer("kvm.rss_mb_per_node",
                   setup_times.rss_mb_per_node.Percentile(0.5), "MB",
                   setup_times.rss_mb_per_node.count());
  for (const char* name : {"create.ms", "create.self_ms", "prepost.ms",
                           "kanalyze.ms", "undo.ms", "fleet.rollout_ms",
                           "fleet.undo_all_ms"}) {
    layers.Report(report, name, name, "ms");
  }
  layers.Report(report, "fleet.wave_ms", "fleet.wave_ms_p50", "ms");
  report->layers = spans.Aggregate();
  if (config.trace) {
    report->chrome_trace = spans.ChromeTrace();
  }
  return ks::OkStatus();
}

}  // namespace perfbench
