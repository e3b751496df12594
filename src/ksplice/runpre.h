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
// Each pre section is decoded once per MatchUnit, and the run code at each
// candidate address is decoded lazily into one stream shared by every
// section and fixpoint pass, so no byte is decoded twice. Candidates of a
// section are the same-named kallsyms symbols (or a committed or
// redirected address); a section whose symbol name is ambiguous is
// verified against each, and ambiguity is resolved by code content plus
// valuation constraints propagated from other sections across fixpoint
// passes. A section's successful verifications are carried forward across
// passes (only the valuation consistency of the cached recovery is
// re-checked), so no (section, candidate) pair is ever walked twice.
// Residual ambiguity or any run/pre difference aborts the update (§4.3,
// §6.2 criterion (a)/(b)).
//
// MatcherOptions::decode_once = false selects the linear oracle that tests
// compare against: every attempt decodes its pre section and run code
// afresh. Decisions, recovered valuations and failure messages are
// byte-identical in both modes.

#ifndef KSPLICE_KSPLICE_RUNPRE_H_
#define KSPLICE_KSPLICE_RUNPRE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "kelf/objfile.h"
#include "ksplice/report.h"
#include "kvm/machine.h"

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

// Matching knobs.
struct MatcherOptions {
  // Decode each pre section once and share one run stream per candidate
  // address across sections and passes. Off = the linear oracle: every
  // attempt decodes and walks its own copies (same decisions, charging
  // pre_bytes_walked per attempt). Only tests and benches turn it off.
  bool decode_once = true;
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
                         PatchRedirect redirect = nullptr,
                         MatcherOptions options = {})
      : machine_(machine),
        redirect_(std::move(redirect)),
        options_(options) {}

  // Matches every text section of `pre` against the run image. When
  // `stats` is non-null it is filled with this call's matching statistics
  // (populated on failure too, up to the point of the abort); the same
  // numbers are aggregated into the global metrics registry under the
  // "runpre." prefix either way.
  ks::Result<UnitMatch> MatchUnit(const kelf::ObjectFile& pre,
                                  MatchStats* stats = nullptr) const;

 private:
  const kvm::Machine& machine_;
  PatchRedirect redirect_;
  MatcherOptions options_;
};

}  // namespace ksplice

#endif  // KSPLICE_KSPLICE_RUNPRE_H_
