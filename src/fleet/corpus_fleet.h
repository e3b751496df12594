// Mixed-release fleets built from the evaluation corpus.
//
// Every fleet consumer (ksplice_tool rollout, perfbench fleet_rollout, the
// fleet_update example, fleet_test) needs the same thing: N booted
// machines spread round-robin across the corpus kernel release line
// (corpus::KernelVersions), small enough to stamp out by the thousand.
// This helper is that one loop. Each release is compiled and linked once
// (corpus::BootKernelVersion caches it), so a node boot copies the image
// and shares the release's symbol table.

#ifndef KSPLICE_FLEET_CORPUS_FLEET_H_
#define KSPLICE_FLEET_CORPUS_FLEET_H_

#include <cstdint>

#include "base/status.h"
#include "fleet/fleet.h"

namespace fleet {

struct CorpusFleetOptions {
  size_t nodes = 8;
  // Per-node machine memory. The corpus image needs ~2.5MB headroom;
  // 4MB keeps a 1000-node fleet around 4GB.
  uint32_t memory_bytes = 4u << 20;
  // Dooms the first `doomed` nodes of RolloutOrder(nodes, seed) — i.e.
  // the nodes a rollout with the same seed visits first (its canaries).
  size_t doomed = 0;
  uint64_t seed = 0;
};

// Boots `options.nodes` machines, release i % KernelVersions().size()
// for node i, ids "node-000"... Node versions carry the release name.
ks::Result<Fleet> MakeCorpusFleet(const CorpusFleetOptions& options);

}  // namespace fleet

#endif  // KSPLICE_FLEET_CORPUS_FLEET_H_
