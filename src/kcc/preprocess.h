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

#include <forward_list>
#include <string>
#include <string_view>
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

// Every file's direct includes, scanned once in place from a SourceTree
// and, after AddPost, from a patched copy of it. Files are numbered: the
// tree's own in path order, then paths it lacks. A file's path points into
// a tree (a key, or an include line's target), so the trees must outlive
// the graph. Immutable after AddPost; queries may run on many threads.
class IncludeGraph {
 public:
  enum class Side { kPre, kPost };

  // Scans every .kc unit of `tree` and every file they reach.
  explicit IncludeGraph(const kdiff::SourceTree& tree);

  // Adds the post side: `post` is the scanned tree changed only at `paths`.
  // Only those paths, and files they newly reach, are scanned; every other
  // file's record serves both sides.
  void AddPost(const kdiff::SourceTree& post,
               const std::vector<std::string>& paths);

  // The unit followed by its transitive includes in Preprocess order on
  // `side`; see the contract at the top of this file.
  ks::Result<std::vector<std::string>> Closure(const std::string& unit,
                                               Side side = Side::kPre) const;

  // The scanned tree's .kc units whose Closure would contain one of
  // `paths` or fail, found by walking file numbers, not building closures.
  // A closure that reaches none of a patch's touched paths reads the same
  // after the patch, so for those paths this decides the post side too.
  std::vector<std::string_view> UnitsReaching(
      const std::vector<std::string>& paths) const;

 private:
  struct Scan {  // one file's include lines on one side
    enum class State : uint8_t { kUnscanned, kMissing, kPresent };
    State state = State::kUnscanned;
    uint32_t first = 0;  // the includes before the first bad directive:
    uint32_t end = 0;    // edges_[first, end)
    ks::Status error;    // that directive's error
  };
  struct File {
    std::string_view path;
    const std::string* contents = nullptr;  // in the scanned tree
    Scan pre;
    int post = -1;  // index into post_ when the patch touched the file
  };

  int Find(std::string_view path) const;  // -1 when unnumbered
  int Intern(std::string_view path);      // `path` must outlive the graph
  const Scan& At(int file, Side side) const;
  void ScanFrom(std::vector<int> pending, Side side,
                const kdiff::SourceTree* post);
  ks::Status Walk(int file, int depth, Side side, std::vector<int>& closure,
                  std::vector<bool>& seen) const;

  size_t tree_files_ = 0;  // files_[0, tree_files_) are the tree's own
  std::vector<File> files_;
  std::vector<Scan> post_;                  // touched files' post records
  std::vector<int> edges_;                  // include targets
  std::vector<int> units_;                  // the tree's .kc units
  std::forward_list<std::string> owned_;    // touched paths no tree holds
};

// One-off closure query: IncludeGraph(tree).Closure(path).
ks::Result<std::vector<std::string>> IncludeClosure(
    const kdiff::SourceTree& tree, const std::string& path);

}  // namespace kcc

#endif  // KSPLICE_KCC_PREPROCESS_H_
