// The kanalyze rule catalog: every rule's stable id, severity and pass
// family, written once. AddFinding reads a finding's severity and pass from
// here, so no pass restates them; DESIGN.md §7 explains each rule and its
// paper motivation. The first digit of an id names the pass family.

#ifndef KSPLICE_KANALYZE_RULES_H_
#define KSPLICE_KANALYZE_RULES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ksplice/report.h"

namespace kanalyze {

using ksplice::LintSeverity;

struct Rule {
  const char* id;  // "KSA202"
  LintSeverity severity;
  const char* pass;     // pass family, as LintFinding::pass reports it
  const char* summary;  // what the rule flags
};

inline constexpr Rule kRules[] = {
    {"KSA101", LintSeverity::kError, "callgraph", "dangling scoped import"},
    {"KSA102", LintSeverity::kWarning, "callgraph",
     "recursive patched function"},
    {"KSA103", LintSeverity::kNote, "callgraph",
     "high fan-in patched function"},
    {"KSA104", LintSeverity::kError, "callgraph",
     "target missing from package"},
    {"KSA201", LintSeverity::kError, "cfg", "undecodable instruction"},
    {"KSA202", LintSeverity::kError, "cfg", "wild jump"},
    {"KSA203", LintSeverity::kError, "cfg", "falls off function end"},
    {"KSA204", LintSeverity::kWarning, "cfg", "unreachable code"},
    {"KSA205", LintSeverity::kWarning, "cfg", "stack imbalance at ret"},
    {"KSA301", LintSeverity::kError, "abi", "data layout change, no hooks"},
    {"KSA302", LintSeverity::kError, "abi", "data content change, no hooks"},
    {"KSA303", LintSeverity::kNote, "abi", "data change gated by hooks"},
    {"KSA401", LintSeverity::kWarning, "quiescence", "patched function blocks"},
    {"KSA402", LintSeverity::kNote, "quiescence",
     "reaches a blocking primitive"},
    {"KSA501", LintSeverity::kWarning, "semdiff",
     "write-set grew into persistent data"},
    // Downgraded to a note when the package declares hooks (semdiff.cc).
    {"KSA502", LintSeverity::kError, "semdiff",
     "store width changed at a shared field"},
    {"KSA503", LintSeverity::kError, "semdiff", "lock imbalance introduced"},
    {"KSA504", LintSeverity::kNote, "semdiff",
     "new call path writes hook-gated data"},
    {"KSA601", LintSeverity::kError, "howto", "dangling fixup target"},
    {"KSA602", LintSeverity::kError, "howto", "fixup into patched-out code"},
    {"KSA603", LintSeverity::kError, "howto",
     "bug-table trap does not decode to a bug trap"},
    {"KSA604", LintSeverity::kNote, "howto",
     "build timestamp differs pre vs post"},
};

// A rule id resolved against kRules at compile time: a finding site that
// names an id missing from the table does not build.
class RuleId {
 public:
  // Implicit, so a finding site passes the id literal itself.
  consteval RuleId(const char* id) : rule_(&Find(id)) {}

  const Rule& rule() const { return *rule_; }

 private:
  static consteval const Rule& Find(std::string_view id) {
    for (const Rule& rule : kRules) {
      if (id == rule.id) {
        return rule;
      }
    }
    throw "unknown kanalyze rule id";
  }

  const Rule* rule_;
};

// Appends a finding of `rule` to `report`, with the rule's severity and
// pass. `offset` is a byte offset into `symbol`'s section, for findings
// about one instruction or table entry.
ksplice::LintFinding& AddFinding(ksplice::LintReport* report, RuleId rule,
                                 std::string unit, std::string symbol,
                                 std::string message, std::string hint,
                                 std::optional<uint32_t> offset = {});

}  // namespace kanalyze

#endif  // KSPLICE_KANALYZE_RULES_H_
