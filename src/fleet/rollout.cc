#include "fleet/rollout.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <optional>

#include "base/faultinject.h"
#include "base/hash.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "base/threadpool.h"
#include "base/trace.h"
#include "ksplice/quarantine.h"
#include "ksplice/runpre.h"
#include "ksplice/watchdog.h"

namespace fleet {

namespace {

using Outcome = ksplice::RolloutNodeOutcome;

// Deterministic per-node stream from (rollout seed, node index).
uint64_t MixSeed(uint64_t seed, size_t index) {
  uint64_t state = seed ^ (0x632be59bd9b4e019ull + index);
  return ks::SplitMix64(&state);
}

// Per-node working state accumulated across the rollout.
struct NodeState {
  ksplice::RolloutNodeReport report;
  // Ids this rollout applied on the node, apply order (rollback undoes
  // them newest-first, preserving any pre-existing stack underneath).
  std::vector<std::string> applied_ids;
  // Watchdog reverts from the node's post-apply soak; when the wave
  // trips, these name the packages the fleet blacklists.
  std::vector<ksplice::RevertReport> reverts;
};

// Node counts by final outcome: one tally behind both a wave's columns and
// the rollout's totals.
class OutcomeTally {
 public:
  void Add(Outcome outcome) { ++counts_[static_cast<size_t>(outcome)]; }
  uint32_t operator[](Outcome outcome) const {
    return counts_[static_cast<size_t>(outcome)];
  }

 private:
  std::array<uint32_t, static_cast<size_t>(Outcome::kAutoReverted) + 1>
      counts_{};
};

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

// Applies the not-yet-applied subset of `packages` on one node and fills
// its report. Runs on a wave worker thread; the plans are shared read-only
// by every node.
void ApplyOnNode(Fleet& fleet, size_t node,
                 const std::vector<ksplice::PackagePlan>& packages,
                 const RolloutPlan& plan, NodeState* state) {
  // Canary drill: only doomed nodes feel the armed fault plan.
  std::optional<ks::ScopedFaultSuppression> suppress;
  if (!fleet.spec(node).doomed) {
    suppress.emplace();
  }

  ksplice::KspliceCore& core = fleet.core(node);
  std::vector<const ksplice::PackagePlan*> missing;
  for (const ksplice::PackagePlan& prepared : packages) {
    if (!core.IsApplied(prepared.package->id)) {
      missing.push_back(&prepared);
    }
  }
  if (missing.empty()) {
    state->report.outcome = Outcome::kAlreadyApplied;
    return;
  }

  ksplice::ApplyOptions options = plan.apply;
  options.rendezvous.backoff_seed = MixSeed(plan.seed, node);
  ks::Result<ksplice::BatchApplyReport> batch =
      core.ApplyAll(missing, options);
  if (!batch.ok()) {
    state->report.outcome = batch.status().code() == ks::ErrorCode::kAborted
                                ? Outcome::kSkippedStale
                                : Outcome::kFailed;
    state->report.error = batch.status().message();
    return;
  }

  static_cast<ksplice::StopWindow&>(state->report) = *batch;
  state->report.functions_spliced = batch->functions_spliced;
  for (const ksplice::PackagePlan* prepared : missing) {
    state->applied_ids.push_back(prepared->package->id);
  }

  // Post-apply soak: spawn the wave workload and run the watchdog over
  // the soak window. Guest faults (a bad patch oopsing under load) are
  // real machine behavior and fire doomed or not; the injector drill
  // sites stay suppressed on non-doomed nodes like every other site.
  if (plan.soak_ticks != 0) {
    kvm::Machine* machine = core.machine();
    if (!plan.soak_entry.empty()) {
      ks::Status spawned =
          machine->SpawnNamed(plan.soak_entry, plan.soak_arg).status();
      if (!spawned.ok()) {
        state->report.outcome = Outcome::kFailed;
        state->report.error = "soak workload: " + spawned.message();
        return;
      }
    }
    ksplice::WatchdogOptions wopts;
    wopts.soak_ticks = plan.soak_ticks;
    wopts.max_faults = plan.max_faults_per_node;
    wopts.rendezvous = options.rendezvous;
    ksplice::HealthMonitor monitor(&core, wopts);
    ksplice::WatchdogReport soak = monitor.Soak();
    state->report.soak_faults = soak.faults_attributed;
    for (const ksplice::RevertReport& revert : soak.reverts) {
      if (revert.reverted) {
        state->applied_ids.erase(std::remove(state->applied_ids.begin(),
                                             state->applied_ids.end(),
                                             revert.id),
                                 state->applied_ids.end());
      }
      state->reverts.push_back(revert);
    }
    if (!state->reverts.empty()) {
      // A failed revert leaves the update fully applied (restore-or-
      // abort); that node is a plain failure and fleet rollback will
      // retry the undo. Clean reverts count separately so the report
      // distinguishes "the safety net worked" from "the node broke".
      bool all_reverted = true;
      for (const ksplice::RevertReport& revert : state->reverts) {
        all_reverted = all_reverted && revert.reverted;
      }
      state->report.outcome =
          all_reverted ? Outcome::kAutoReverted : Outcome::kFailed;
      state->report.error = state->reverts.front().trigger.reason;
      return;
    }
  }
  state->report.outcome = Outcome::kPatched;
}

}  // namespace

std::vector<size_t> RolloutOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  if (seed == 0 || n < 2) {
    return order;
  }
  uint64_t state = seed;
  for (size_t i = n - 1; i > 0; --i) {
    size_t j = static_cast<size_t>(ks::SplitMix64(&state) % (i + 1));
    std::swap(order[i], order[j]);
  }
  return order;
}

ks::Result<ksplice::RolloutReport> RunRollout(
    Fleet& fleet, std::span<const ksplice::UpdatePackage> packages,
    const RolloutPlan& plan) {
  if (packages.empty()) {
    return ks::InvalidArgument("rollout: no packages");
  }
  if (plan.canary_fraction < 0.0 || plan.canary_fraction > 1.0) {
    return ks::InvalidArgument("rollout: canary_fraction outside [0,1]");
  }
  if (plan.abort_failure_fraction < 0.0) {
    return ks::InvalidArgument("rollout: negative abort_failure_fraction");
  }
  if (plan.max_in_flight < 1) {
    return ks::InvalidArgument("rollout: max_in_flight below 1");
  }
  // Everything about a package that no node changes — its content hash,
  // helper size and decoded pre side — is built once here and shared by
  // every node.
  std::vector<ksplice::PackagePlan> package_plans;
  for (const ksplice::UpdatePackage& package : packages) {
    KS_ASSIGN_OR_RETURN(ksplice::PackagePlan built,
                        ksplice::PackagePlan::Build(package));
    package_plans.push_back(std::move(built));
  }
  // Fleet-level blacklist gate: a package a previous rollout's watchdogs
  // blamed is refused outright, by content hash — renaming the id does
  // not sneak it past.
  if (plan.blacklist != nullptr) {
    for (const ksplice::PackagePlan& prepared : package_plans) {
      std::optional<ksplice::QuarantineEntry> entry =
          plan.blacklist->Find(prepared.content_hash);
      if (entry.has_value()) {
        return ks::FailedPrecondition(ks::StrPrintf(
            "rollout: package %s is blacklisted (hash %016llx, "
            "evidence: %s)",
            prepared.package->id.c_str(),
            static_cast<unsigned long long>(prepared.content_hash),
            entry->evidence.c_str()));
      }
    }
  }

  ks::MetricsRegistry& metrics = ks::Metrics();
  metrics.GetCounter("fleet.rollouts").Add();
  ks::Histogram& pause_hist =
      metrics.GetHistogram("fleet.node_pause_ns");

  ksplice::RolloutReport report;
  for (size_t i = 0; i < packages.size(); ++i) {
    if (i != 0) {
      report.id += '+';
    }
    report.id += packages[i].id;
  }
  report.fleet_size = static_cast<uint32_t>(fleet.size());

  const uint64_t begin_ns = ks::NowNs();
  // The drill plan stays armed for the rollout and is disarmed on every
  // exit path.
  ks::ScopedFaultPlan armed;
  if (!plan.canary_fault_plan.empty()) {
    ks::Faults().SetSeed(plan.seed);
    KS_RETURN_IF_ERROR(armed.Arm(plan.canary_fault_plan));
  }

  // Partition the visit order into the canary wave plus wave_size chunks.
  std::vector<size_t> order = RolloutOrder(fleet.size(), plan.seed);
  size_t canary =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(
                              plan.canary_fraction *
                              static_cast<double>(fleet.size()))));
  canary = std::min(canary, fleet.size());
  std::vector<std::pair<size_t, size_t>> waves;  // [begin, end) into order
  if (canary > 0) {
    waves.emplace_back(0, canary);
  }
  for (size_t at = canary; at < order.size();) {
    size_t take = plan.wave_size == 0
                      ? order.size() - at
                      : std::min<size_t>(plan.wave_size,
                                         order.size() - at);
    waves.emplace_back(at, at + take);
    at += take;
  }

  std::vector<NodeState> nodes(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    nodes[i].report.node = fleet.spec(i).id;
    nodes[i].report.version = fleet.spec(i).version;
  }

  for (size_t w = 0; w < waves.size(); ++w) {
    auto [begin, end] = waves[w];
    bool is_canary = canary > 0 && w == 0;
    for (size_t at = begin; at < end; ++at) {
      nodes[order[at]].report.wave = static_cast<int>(w);
      nodes[order[at]].report.canary = is_canary;
    }

    const uint64_t wave_begin_ns = ks::NowNs();
    ks::ParallelFor(plan.max_in_flight, end - begin, [&](size_t i) {
      size_t node = order[begin + i];
      ApplyOnNode(fleet, node, package_plans, plan, &nodes[node]);
    });

    ksplice::RolloutWaveReport wave;
    wave.wave = static_cast<int>(w);
    wave.canary = is_canary;
    wave.nodes = static_cast<uint32_t>(end - begin);
    OutcomeTally tally;
    for (size_t at = begin; at < end; ++at) {
      const ksplice::RolloutNodeReport& node = nodes[order[at]].report;
      tally.Add(node.outcome);
      wave.max_pause_ns = std::max(wave.max_pause_ns, node.pause_ns);
      if (node.pause_ns != 0) {
        pause_hist.Observe(node.pause_ns);
      }
    }
    wave.patched = tally[Outcome::kPatched];
    wave.already_applied = tally[Outcome::kAlreadyApplied];
    wave.skipped_stale = tally[Outcome::kSkippedStale];
    wave.auto_reverted = tally[Outcome::kAutoReverted];
    // Anything else counts as failed.
    wave.failed = wave.nodes - wave.patched - wave.already_applied -
                  wave.skipped_stale - wave.auto_reverted;
    wave.wall_ns = ks::NowNs() - wave_begin_ns;
    // Auto-reverted nodes are regressions the safety net caught — they
    // feed the abort threshold exactly like hard failures.
    wave.tripped =
        wave.failed + wave.auto_reverted >
        plan.abort_failure_fraction * static_cast<double>(wave.nodes);
    metrics.GetCounter("fleet.waves").Add();
    report.wave_reports.push_back(wave);

    if (wave.tripped) {
      report.aborted = true;
      report.tripped_wave = static_cast<int>(w);
      break;
    }
  }
  report.waves = static_cast<uint32_t>(report.wave_reports.size());

  // Escalation: an aborted rollout blacklists every package a watchdog
  // blamed, keyed by content hash, with the triggering fault as
  // evidence. Runs on the orchestrator thread in node-index order, so
  // the blacklist and report are identical at any max_in_flight.
  if (report.aborted) {
    for (size_t node = 0; node < nodes.size(); ++node) {
      for (const ksplice::RevertReport& revert : nodes[node].reverts) {
        std::string tag = ks::StrPrintf(
            "%s#%016llx", revert.id.c_str(),
            static_cast<unsigned long long>(revert.package_hash));
        if (Contains(report.blacklisted, tag)) {
          continue;
        }
        report.blacklisted.push_back(tag);
        if (plan.blacklist != nullptr) {
          ksplice::QuarantineEntry entry;
          entry.id = revert.id;
          entry.package_hash = revert.package_hash;
          entry.evidence = ks::StrPrintf(
              "fleet rollout %s aborted: node %s: %s", report.id.c_str(),
              nodes[node].report.node.c_str(),
              revert.trigger.reason.c_str());
          entry.tid = revert.trigger.tid;
          entry.pc = revert.trigger.pc;
          entry.tick = revert.trigger.tick;
          plan.blacklist->Add(std::move(entry));
        }
      }
    }
  }

  // Fleet-wide rollback: undo everything this rollout applied, leaving
  // pre-existing stacks intact. Recovery runs suppressed.
  if (report.aborted) {
    ks::ParallelFor(plan.max_in_flight, fleet.size(), [&](size_t node) {
      NodeState& state = nodes[node];
      if (state.applied_ids.empty()) {
        return;
      }
      ks::ScopedFaultSuppression recovery;
      bool undone = true;
      for (auto it = state.applied_ids.rbegin();
           it != state.applied_ids.rend(); ++it) {
        ks::Result<ksplice::UndoReport> undo =
            fleet.core(node).Undo(*it, plan.apply.rendezvous);
        if (!undo.ok()) {
          state.report.error =
              "rollback failed: " + undo.status().message();
          undone = false;
          break;
        }
      }
      state.report.outcome = undone ? Outcome::kRolledBack : Outcome::kFailed;
    });
  }

  // Totals over final outcomes; percentiles over the observed stop
  // windows (patched and rolled-back nodes both paused once).
  std::vector<uint64_t> pauses;
  OutcomeTally totals;
  for (NodeState& state : nodes) {
    const ksplice::RolloutNodeReport& node = state.report;
    totals.Add(node.outcome);
    if (node.pause_ns != 0) {
      pauses.push_back(node.pause_ns);
    }
    report.nodes.push_back(std::move(state.report));
  }
  report.not_attempted = totals[Outcome::kNotAttempted];
  report.already_applied = totals[Outcome::kAlreadyApplied];
  report.patched = totals[Outcome::kPatched];
  report.skipped_stale = totals[Outcome::kSkippedStale];
  report.failed = totals[Outcome::kFailed];
  report.rolled_back = totals[Outcome::kRolledBack];
  report.auto_reverted = totals[Outcome::kAutoReverted];
  if (!pauses.empty()) {
    std::sort(pauses.begin(), pauses.end());
    auto at = [&](double q) {
      size_t i = static_cast<size_t>(q * static_cast<double>(
                                             pauses.size() - 1));
      return pauses[i];
    };
    report.pause_p50_ns = at(0.50);
    report.pause_p99_ns = at(0.99);
    report.pause_max_ns = pauses.back();
  }
  report.wall_ns = ks::NowNs() - begin_ns;
  uint32_t attempted = report.fleet_size - report.not_attempted;
  if (report.wall_ns > 0) {
    report.nodes_per_sec = static_cast<double>(attempted) * 1e9 /
                           static_cast<double>(report.wall_ns);
  }

  metrics.GetCounter("fleet.nodes_patched").Add(report.patched);
  metrics.GetCounter("fleet.nodes_already_applied")
      .Add(report.already_applied);
  metrics.GetCounter("fleet.nodes_skipped_stale")
      .Add(report.skipped_stale);
  metrics.GetCounter("fleet.nodes_failed").Add(report.failed);
  metrics.GetCounter("fleet.nodes_rolled_back").Add(report.rolled_back);
  metrics.GetCounter("fleet.reverts").Add(report.auto_reverted);
  metrics.GetCounter("fleet.blacklisted")
      .Add(static_cast<uint64_t>(report.blacklisted.size()));
  if (report.aborted) {
    metrics.GetCounter("fleet.rollouts_aborted").Add();
  }
  return report;
}

}  // namespace fleet
