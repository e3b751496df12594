// Run-pre matching (paper §4): verify that the pre object code corresponds
// to the code actually running, and recover symbol values — including
// ambiguous local symbols — from already-relocated run bytes.
//
// One verifier decides every (section, candidate) pair. It walks pre and
// run instruction records in step, tolerating rel8-vs-rel32 encodings of
// the same branch as long as the targets correspond (§4.3), and at each
// pre relocation site inverts the relocation algebra against the
// already-relocated run word: S = val + P_run − A (pc-relative) or
// S = val − A (absolute), accumulating a symbol valuation that must be
// globally consistent.
//
// The pre side is decoded once, into a MatchPlan (one per helper unit),
// before any machine is touched; a PackagePlan bundles the plans of one
// package with its content hash and helper size. Plans are immutable and
// shared read-only by every node of a rollout and every thread of a batch.
// A plan interns every symbol it references into a dense slot (the
// ksplice_symbol of the original), and its relocation sites carry slots:
// a match values symbols by slot and looks up each slot's kallsyms
// entries once, so names come back only in UnitMatch and error text.
// The run side is never planned: MatchUnit reads the live run code in place
// (§4.3), compares it byte by byte, and decodes it only where bytes differ,
// lazily, into one stream per candidate shared by every section and pass.
//
// Candidates of a section are the same-named kallsyms symbols (or a
// committed or redirected address); a section whose symbol name is
// ambiguous is verified against each, and ambiguity is resolved by code
// content plus valuation constraints propagated from other sections across
// fixpoint passes. A section's successful verifications are carried forward across
// passes (only the valuation consistency of the cached recovery is
// re-checked), so no (section, candidate) pair is ever walked twice.
// Residual ambiguity or any run/pre difference aborts the update (§4.3,
// §6.2 criterion (a)/(b)).
//
// A text section whose byte_comparable bit is set tries the byte path
// first: run bytes equal to the pre bytes outside the relocation fields
// decide as the walk would, without decoding the run code. Any other
// section, and any byte difference, takes the walk. A plan with every bit
// cleared walks everything; tests use one as the linear oracle.

#ifndef KSPLICE_KSPLICE_RUNPRE_H_
#define KSPLICE_KSPLICE_RUNPRE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "kelf/objfile.h"
#include "ksplice/report.h"
#include "ksplice/package.h"
#include "kvm/machine.h"
#include "kvx/isa.h"

namespace ksplice {

// Where a pre text section was found in the running kernel.
struct MatchedSection {
  std::string name;     // section name, e.g. ".text.foo"
  std::string symbol;   // defining symbol
  uint32_t run_address = 0;
  uint32_t run_size = 0;  // bytes of run code covered by the match
};

// Everything recovered by matching one compilation unit.
struct UnitMatch {
  std::string unit;
  // Symbol name -> run address. Contains the unit's own symbols (sections
  // matched by content) and every symbol recovered from relocation sites,
  // including imports from other units.
  std::map<std::string, uint32_t> symbol_values;
  std::map<std::string, MatchedSection> sections;  // keyed by section name
};

// Stacking hook (§5.4): returns the address/size of the current replacement
// code for (unit, symbol) if that function is already hot-patched.
using PatchRedirect =
    std::function<std::optional<std::pair<uint32_t, uint32_t>>(
        const std::string& unit, const std::string& symbol)>;

// One pre relocation site: the relocation and its symbol's plan slot.
struct PlannedReloc {
  const kelf::Relocation* rel = nullptr;
  uint32_t slot = 0;
};

// One pre section as the verifier reads it.
struct PlannedSection {
  const kelf::Section* section = nullptr;  // in the plan's object
  uint32_t slot = 0;                       // defining symbol's slot
  // Matching strategy selector: kNone = text (instruction-wise), anything
  // else is a howto table (entry-structural or content-ignoring).
  kelf::Howto howto = kelf::Howto::kNone;
  // Relocation at each field offset.
  std::map<uint32_t, PlannedReloc> reloc_at;

  // Text sections only: the decode. One non-nop instruction record.
  struct Rec {
    uint32_t pos = 0;  // offset from the section start
    kvx::Insn insn;
  };
  std::vector<Rec> recs;
  // Every instruction boundary the decode walk visits (nop starts
  // included, plus the end-of-walk boundary) with the index of the first
  // record at or after it (recs.size() for boundaries past the last
  // record), in ascending offset order for binary search. This is the
  // record-level image of branch correspondence and nop normalization of
  // branch targets.
  std::vector<std::pair<uint32_t, size_t>> boundary;
  uint32_t end = 0;           // bytes consumed by the decode walk
  bool decode_error = false;  // decoding failed at offset `end`
  // Text sections only: the byte path (§4). When set, run bytes equal to
  // the pre bytes over [0, code_end) outside `fields` provably decide as
  // the walk would.
  bool byte_comparable = false;
  struct Field {  // a relocation field, its record and the nops before it
    uint32_t at = 0, rec_pos = 0, rec_end = 0, nops_before = 0;
    PlannedReloc site;
  };
  std::vector<Field> fields;  // walk order
  uint32_t code_end = 0;      // end of the last record
  uint32_t code_nops = 0;     // nop bytes before code_end
};

// The pre side of one helper unit, decoded once. Borrows `object`, which
// must outlive the plan. Immutable after Build, so any number of machines
// and threads may match against one plan concurrently.
struct MatchPlan {
  const kelf::ObjectFile* object = nullptr;
  std::vector<PlannedSection> sections;  // run-pre sections, object order
  // The name of each slot: every section symbol and relocation target the
  // plan references, once each.
  std::vector<std::string> slot_names;

  // Decodes every text section of `pre` and indexes its relocations. The
  // decode is charged once, here: to `stats` (pre_bytes_canonicalized)
  // when non-null and to the registry. Fails when a section has no
  // defining symbol.
  static ks::Result<MatchPlan> Build(const kelf::ObjectFile& pre,
                                     MatchStats* stats = nullptr);
};

// Everything about one package that does not depend on the machine it is
// applied to, built once per package and shared read-only. Borrows
// `package`, which must outlive the plan.
struct PackagePlan {
  const UpdatePackage* package = nullptr;
  uint64_t content_hash = 0;     // PackageContentHash (quarantine key)
  uint32_t helper_bytes = 0;     // serialized helper objects, arena size
  std::vector<MatchPlan> units;  // one per helper object, package order

  // Builds every unit's MatchPlan, charging their decode to `stats`.
  static ks::Result<PackagePlan> Build(const UpdatePackage& package,
                                       MatchStats* stats = nullptr);
};

// Nop-normalizes a branch target (§4.3): when `target` lies inside
// [window_base, window_base + window.size()), skips no-op instructions
// starting at it and returns the first non-nop boundary; otherwise returns
// `target` unchanged. All arithmetic is 64-bit — window_base near the top
// of the 32-bit address space must not wrap the range check (a wrapped
// uint32_t comparison silently skipped normalization for top-of-memory
// sections). Exposed for the overflow regression test.
uint64_t NormalizeBranchTarget(std::span<const uint8_t> window,
                               uint64_t window_base, uint64_t target);

class RunPreMatcher {
 public:
  explicit RunPreMatcher(const kvm::Machine& machine,
                         PatchRedirect redirect = nullptr)
      : machine_(machine), redirect_(std::move(redirect)) {}

  // Matches every section of `plan` against the run image, holding the
  // machine lock throughout (the redirect runs under it). When `stats` is
  // non-null it is filled with this call's matching statistics (populated
  // on failure too, up to the point of the abort): run-side work only,
  // since the plan's decode was charged when it was built. The same
  // numbers go to the metrics registry under the "runpre." prefix either way.
  ks::Result<UnitMatch> MatchUnit(const MatchPlan& plan,
                                  MatchStats* stats = nullptr) const;
  // Builds a plan for `pre` and matches it; `stats` then also carries the
  // plan's decode.
  ks::Result<UnitMatch> MatchUnit(const kelf::ObjectFile& pre,
                                  MatchStats* stats = nullptr) const;

 private:
  const kvm::Machine& machine_;
  PatchRedirect redirect_;
};

}  // namespace ksplice

#endif  // KSPLICE_KSPLICE_RUNPRE_H_
