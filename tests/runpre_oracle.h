// The linear oracle for run-pre matching. A walk-only plan is the unit's
// MatchPlan with byte_comparable cleared on every section, so every
// (section, candidate) pair is decided by the instruction walk, bytes
// equal or not. The byte path must decide exactly as that walk does:
// tests match both ways and expect the same decisions, valuations,
// sections, attempt counts and refusal text.

#ifndef KSPLICE_TESTS_RUNPRE_ORACLE_H_
#define KSPLICE_TESTS_RUNPRE_ORACLE_H_

#include <utility>

#include "base/status.h"
#include "kelf/objfile.h"
#include "ksplice/report.h"
#include "ksplice/runpre.h"

namespace ksplice {

// RunPreMatcher::MatchUnit(pre, stats) on the walk-only plan of `pre`,
// whose decode is charged to `stats` as MatchUnit charges its own plan's.
inline ks::Result<UnitMatch> MatchWalkOnly(const RunPreMatcher& matcher,
                                           const kelf::ObjectFile& pre,
                                           MatchStats* stats = nullptr) {
  MatchStats built;
  KS_ASSIGN_OR_RETURN(MatchPlan plan, MatchPlan::Build(pre, &built));
  for (PlannedSection& section : plan.sections) {
    section.byte_comparable = false;
  }
  ks::Result<UnitMatch> match = matcher.MatchUnit(plan, stats);
  if (stats != nullptr) {
    stats->MergeFrom(built);
  }
  return match;
}

}  // namespace ksplice

#endif  // KSPLICE_TESTS_RUNPRE_ORACLE_H_
