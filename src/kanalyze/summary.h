// Interprocedural side-effect summaries (kanalyze pass substrate).
//
// A FunctionSummary is what the semantic-diff and quiescence passes know
// about one function body: which named memory regions it reads and writes
// (symbol + byte offset + access width), whether it takes or releases the
// big kernel lock and whether every return provably restores the lock
// depth, which blocking primitives it invokes, and — filled in per package
// over the PR-3 call graph — the write set and blocking primitives it can
// reach transitively through calls.
//
// The direct fields are computed by abstract interpretation over the kvx
// bytecode of the function's text section. Each basic block is interpreted
// with a small register lattice (unknown / constant / symbol+offset /
// frame-derived), reset at block leaders, so the result is a conservative
// over-approximation that never depends on path order. Frame-derived
// addresses (fp/sp arithmetic — locals, spills) are deliberately invisible:
// only accesses that can escape the activation matter to patch safety.
//
// Direct summaries are a pure function of (section bytes, relocation
// shape), so they are content-hash-keyed and cached in the generic blob
// store of kcc::ObjectCache: a lint, a create --lint and a rollout gate in
// one process summarize each distinct function body once. No corpus
// package has more than a handful of functions, so they are summarized
// one after another on the caller's thread.

#ifndef KSPLICE_KANALYZE_SUMMARY_H_
#define KSPLICE_KANALYZE_SUMMARY_H_

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "base/status.h"
#include "kanalyze/callgraph.h"
#include "kelf/objfile.h"
#include "ksplice/package.h"

namespace kcc {
class ObjectCache;
}

namespace kanalyze {

// One attributed memory access: a named region plus byte offset and access
// width. `symbol` is normalized — the apply-time "unit::" scope prefix is
// stripped — so the same datum compares equal between a helper (pre) body
// and its extracted primary (post) twin.
struct MemEffect {
  std::string symbol;
  int32_t offset = 0;       // byte offset within `symbol` (reloc addend +
                            // any provable register arithmetic)
  uint8_t width = 0;        // 4 = word, 1 = byte
  bool offset_known = true; // false: somewhere inside `symbol`

  std::tuple<const std::string&, bool, int32_t, uint8_t> Key() const {
    return {symbol, offset_known, offset, width};
  }
  bool operator<(const MemEffect& o) const { return Key() < o.Key(); }
  bool operator==(const MemEffect& o) const { return Key() == o.Key(); }

  std::string ToString() const;  // "sym+4/w4" / "sym+?/w1"
};

struct FunctionSummary {
  // ---- Direct effects: pure function of (bytes, relocs); cached --------
  std::vector<MemEffect> writes;  // sorted, deduplicated
  std::vector<MemEffect> reads;
  bool writes_unresolved = false;  // a store the interpreter could not
                                   // attribute (not frame, not symbol)
  bool reads_unresolved = false;
  uint32_t lock_acquires = 0;  // static SYS lock_kernel sites (reachable)
  uint32_t lock_releases = 0;  // static SYS unlock_kernel sites (reachable)
  // Lock-depth verdict from a path-sensitive walk (same join discipline as
  // the KSA205 stack model): `lock_exits_known` means every reachable RET
  // had a provable lock depth; `lock_imbalance` means some reachable RET
  // provably returns with depth != 0 (that depth in `lock_imbalance_depth`).
  // "Provably balanced" == lock_exits_known && !lock_imbalance.
  bool lock_exits_known = true;
  bool lock_imbalance = false;
  int32_t lock_imbalance_depth = 0;
  bool blocks = false;  // contains a reachable SYS sleep / lock_kernel
  std::set<std::string> blocking_primitives;  // "sleep" / "lock_kernel"
  std::vector<std::string> callees;  // normalized callee names, sorted,
                                     // deduplicated (reloc call targets)
  uint64_t insns = 0;  // instructions interpreted

  // ---- Transitive facts: filled per package over the call graph --------
  // (not part of the cached blob)
  std::vector<MemEffect> transitive_writes;  // union over self + reachable
  bool transitive_writes_unresolved = false;
  std::set<std::string> reachable_blocking;  // primitives reachable through
                                             // at least one call edge

  bool ProvablyLockBalanced() const {
    return lock_exits_known && !lock_imbalance;
  }

  // Deterministic binary encoding of the direct fields (base/bytes.h):
  // the blob kcc::ObjectCache stores. Deserialize rejects truncated or
  // trailing bytes.
  std::vector<uint8_t> Serialize() const;
  static ks::Result<FunctionSummary> Deserialize(
      const std::vector<uint8_t>& bytes);
};

// Strips the apply-time "unit::" scope prefix from a symbol name, so pre
// "counter" and post "m.kc::counter" name the same datum.
std::string NormalizeEffectSymbol(const std::string& name);

// Computes the direct summary of one text section by abstract
// interpretation. Pure: same (bytes, relocs, symbol names) in, same
// summary out.
FunctionSummary SummarizeSection(const kelf::ObjectFile& object,
                                 const kelf::Section& section);

struct PackageSummaries {
  // Parallel to CallGraph::nodes: functions[i] summarizes graph.nodes[i].
  std::vector<FunctionSummary> functions;
  uint64_t cache_hits = 0;    // direct summaries served from the blob cache
  uint64_t cache_misses = 0;  // direct summaries computed this call
  uint64_t insns_interpreted = 0;
};

// Summarizes every function in the graph (direct summaries, served from
// the optional content-hash-keyed blob `cache` when it has them), then
// closes the transitive fields over the call edges. The summaries do not
// depend on the cache's state.
PackageSummaries ComputeSummaries(const ksplice::UpdatePackage& package,
                                  const CallGraph& graph,
                                  kcc::ObjectCache* cache);

}  // namespace kanalyze

#endif  // KSPLICE_KANALYZE_SUMMARY_H_
