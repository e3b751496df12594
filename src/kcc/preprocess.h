// Minimal preprocessor for KC: `#include "path"` textual inclusion from a
// SourceTree, include-once semantics, no macros, and the include graph that
// answers "which files reach this unit's object code" without expanding it.
//
// Headers are how the paper's §3.1 example arises: a patch that changes a
// prototype in a header changes the *object code* of every unit that
// includes it, even though those units' own source is untouched. The
// build system (ksplice::prepost) therefore recompiles a unit when any
// file in its include closure changed, and the object cache keys a unit by
// its closure's contents.
//
// `#include "path"` is the only directive there is, so the include lines of
// each file fully determine every closure. IncludeGraph records each file's
// include lines once and walks them exactly as Preprocess does: for a .kc
// unit, Closure(unit) is `{unit} + Preprocess(tree, unit).includes` in the
// same order, and it fails wherever Preprocess fails (missing file, unknown
// directive, unquoted include, nesting deeper than 32), with the same
// status. A .kvs unit's closure is the unit itself.

#ifndef KSPLICE_KCC_PREPROCESS_H_
#define KSPLICE_KCC_PREPROCESS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "kdiff/diff.h"

namespace kcc {

struct PreprocessedSource {
  std::string text;                   // unit with includes spliced in
  std::vector<std::string> includes;  // files read, excluding the unit itself
};

// Expands `#include "path"` lines in `path` against `tree`. Include paths
// are tree-relative. Each file is included at most once per unit; cycles
// are therefore harmless. Lines of included files are passed through
// verbatim (they carry no file/line mapping; diagnostics cite the unit).
// Only callers that consume the text call this; closures come from
// IncludeGraph.
ks::Result<PreprocessedSource> Preprocess(const kdiff::SourceTree& tree,
                                          const std::string& path);

// Every file's direct includes, scanned once in place from a SourceTree.
// Immutable after construction apart from Rescan, so Closure may run on
// many threads at once.
class IncludeGraph {
 public:
  // Scans every .kc unit of `tree` and every file they reach.
  explicit IncludeGraph(const kdiff::SourceTree& tree);
  // Scans `unit` and the files it reaches: enough for Closure(unit), the
  // one query such a graph is built for.
  IncludeGraph(const kdiff::SourceTree& tree, const std::string& unit);

  // Brings the graph up to date with `tree`, which may differ from the
  // scanned tree only at `paths`: drops those entries, rescans the ones
  // that exist in `tree`, and scans any file they newly reach.
  void Rescan(const kdiff::SourceTree& tree,
              const std::vector<std::string>& paths);

  // The unit followed by its transitive includes in Preprocess order; see
  // the contract at the top of this file.
  ks::Result<std::vector<std::string>> Closure(const std::string& unit) const;

 private:
  struct File {
    std::vector<std::string> includes;  // targets before the first error
    ks::Status error;                   // the first bad directive, if any
  };

  void ScanFrom(const kdiff::SourceTree& tree,
                std::vector<std::string> pending);
  ks::Status Walk(const std::string& path, int depth,
                  std::vector<std::string>& closure) const;

  std::unordered_map<std::string, File> files_;
};

// One-off closure query: IncludeGraph(tree, path).Closure(path).
ks::Result<std::vector<std::string>> IncludeClosure(
    const kdiff::SourceTree& tree, const std::string& path);

}  // namespace kcc

#endif  // KSPLICE_KCC_PREPROCESS_H_
