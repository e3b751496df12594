// Wave/canary rollout orchestration over a Fleet.
//
// RunRollout pushes one batch of update packages across every node of a
// fleet the way an operator would: a small canary wave first, then the
// rest of the fleet in fixed-size waves, each wave fanned across worker
// threads. After every wave the orchestrator reads the health signals —
// per-node Apply/Undo reports (stop-machine pause, quiescence retries,
// failure status) — and if the wave's failure fraction exceeds the plan's
// threshold it aborts the rollout and rolls back every node it patched,
// leaving each byte-identical to its pre-rollout state (pre-existing
// update stacks survive; only this rollout's updates are undone).
//
// Node outcomes (ksplice::RolloutNodeOutcome):
//  - a run-pre mismatch (ks::ErrorCode::kAborted) means the node runs a
//    kernel release whose patched unit drifted — the package is stale
//    there, the node is counted `skipped_stale`, and staleness never
//    counts toward the abort threshold (§6.2: one package does not fit
//    every release, and that is detected, not fatal);
//  - any other apply failure (quiescence exhaustion, injected faults,
//    load errors) counts `failed` and feeds the abort threshold;
//  - a node whose stack already carries every package is
//    `already_applied` and is not re-applied;
//  - with a post-wave soak configured (soak_ticks > 0), a node whose
//    watchdog attributes a regression to this rollout's updates is
//    auto-reverted on the spot and counted `auto_reverted` — which feeds
//    the abort threshold exactly like `failed`.
//
// Post-wave soak (the PR-10 safety net, ksplice/watchdog.h): after a
// node patches cleanly, the orchestrator optionally spawns the wave
// workload (`soak_entry`) and runs a HealthMonitor soak window on the
// node. An attributed regression auto-reverts that node's updates; when
// the wave's (failed + auto_reverted) fraction trips the abort
// threshold, the rollout aborts, every patched node rolls back, and the
// packages the watchdogs blamed land in the fleet-level blacklist (a
// ksplice::Quarantine keyed by package content hash) — a later rollout
// handed the same blacklist refuses those packages outright.
//
// Canary failure drill: arming RolloutPlan::canary_fault_plan (the
// base/faultinject grammar) makes the process-wide injector live for the
// rollout's duration, but every non-doomed node applies under a
// thread-local ScopedFaultSuppression, so only nodes whose NodeSpec says
// `doomed` actually fail. With `site=always` modes the drill is
// deterministic across thread counts. All rollback/undo work also runs
// suppressed — recovery is exempt from injection, as always.
//
// Each package is planned once per rollout (ksplice::PackagePlan: content
// hash, helper size, decoded pre side) and every node matches against the
// shared, read-only plan; only the run side is read per node.
//
// Determinism: node order comes from RolloutOrder(n, seed) (seeded
// Fisher-Yates; seed 0 = insertion order), per-node rendezvous jitter is
// seeded from (plan seed, node index), and wave aggregation is
// index-slotted — the same plan over the same fleet yields identical
// outcomes at any max_in_flight.

#ifndef KSPLICE_FLEET_ROLLOUT_H_
#define KSPLICE_FLEET_ROLLOUT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "fleet/fleet.h"
#include "ksplice/core.h"
#include "ksplice/package.h"
#include "ksplice/quarantine.h"
#include "ksplice/report.h"

namespace fleet {

struct RolloutPlan {
  // Canary sizing: the first wave holds max(1, ceil(canary_fraction *
  // fleet size)) nodes, capped at the fleet size.
  double canary_fraction = 0.05;

  // Post-canary waves hold up to `wave_size` nodes (0 = the whole rest of
  // the fleet in one wave). Within a wave up to `max_in_flight` node
  // applies run concurrently (1 = serial; must be >= 1).
  uint32_t wave_size = 32;
  int max_in_flight = 1;

  // Abort when a wave's failed fraction exceeds this (strictly greater,
  // so 0.0 trips on any failure). Stale skips never count as failures.
  double abort_failure_fraction = 0.0;

  // Seeds RolloutOrder and each node's rendezvous backoff jitter.
  uint64_t seed = 0;

  // Fault plan armed for the rollout's duration (faultinject grammar,
  // e.g. "ksplice.txn.pre_apply=always"); "" arms nothing. Only nodes
  // with NodeSpec::doomed feel it — see the header comment.
  std::string canary_fault_plan;

  // Post-wave soak: ticks of watchdog-monitored machine time each
  // freshly patched node runs before it counts as healthy (0 = no soak).
  // Regressions the watchdog attributes to this rollout's updates are
  // auto-reverted per node (ksplice/watchdog.h).
  uint64_t soak_ticks = 0;

  // Attributed faults a node tolerates during its soak before the
  // auto-revert fires (watchdog max_faults; 0 = any attributed fault).
  uint64_t max_faults_per_node = 0;

  // Workload spawned on each node before its soak so the patched code
  // actually runs ("" = soak whatever is already runnable). Corpus
  // kernels ship "stress_main"/"stress_worker" entries.
  std::string soak_entry;
  uint32_t soak_arg = 0;

  // Fleet-level package blacklist, shared across rollouts. When a wave
  // trips with auto-reverted nodes, the blamed packages are added here
  // (keyed by content hash, with the triggering fault as evidence), and
  // RunRollout refuses any package already present. nullptr = no
  // blacklist; blamed packages are still listed in the report.
  ksplice::Quarantine* blacklist = nullptr;

  // Per-node apply options; rendezvous.backoff_seed is overridden per
  // node for deterministic jitter.
  ksplice::ApplyOptions apply;
};

// The visit order RunRollout uses: a seeded Fisher-Yates shuffle of
// 0..n-1 (seed 0 = identity). Exposed so harnesses can predict which
// nodes land in the canary wave (e.g. to doom the first k).
std::vector<size_t> RolloutOrder(size_t n, uint64_t seed);

// Rolls `packages` across the fleet per `plan`. Returns the full ledger
// (never an error status for per-node failures — those are in the
// report; the status is only for malformed input). Packages a node
// already has applied are skipped per node.
ks::Result<ksplice::RolloutReport> RunRollout(
    Fleet& fleet, std::span<const ksplice::UpdatePackage> packages,
    const RolloutPlan& plan);

}  // namespace fleet

#endif  // KSPLICE_FLEET_ROLLOUT_H_
