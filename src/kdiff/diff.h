// kdiff: source trees, line diffing, and the unified diff format.
//
// ksplice-create's input is "the original kernel source and a patch in the
// standard patch format, the unified diff patch format" (§5). This module
// supplies that interface: SourceTree models a kernel source tree, a Myers
// O(ND) differ produces minimal line scripts, and unified diffs can be
// rendered, parsed, and applied with context verification.

#ifndef KSPLICE_KDIFF_DIFF_H_
#define KSPLICE_KDIFF_DIFF_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace kdiff {

// An in-memory source tree: path -> file contents. Paths are
// '/'-separated relative paths ("drivers/dvb/dst_ca.kc"). File contents are
// immutable and shared: a copy of a tree shares every file with the
// original until one of them is rewritten, so a patched copy costs only
// the files the patch touches.
class SourceTree {
 public:
  SourceTree() = default;

  void Write(std::string path, std::string contents) {
    files_[std::move(path)] =
        std::make_shared<const std::string>(std::move(contents));
  }
  ks::Result<std::string> Read(const std::string& path) const;
  // The contents of `path` without a copy, or null when it does not exist.
  // The pointer stays valid while the file is neither rewritten nor
  // removed, in this tree and in every copy that still shares it.
  const std::string* Find(std::string_view path) const {
    auto it = files_.find(path);
    return it == files_.end() ? nullptr : it->second.get();
  }
  bool Exists(std::string_view path) const {
    return files_.find(path) != files_.end();
  }
  void Remove(const std::string& path) { files_.erase(path); }

  std::vector<std::string> Paths() const;
  size_t size() const { return files_.size(); }
  // Calls fn(path, contents) for every file, in path order. Both
  // references point into the tree.
  template <typename Fn>
  void ForEachFile(Fn&& fn) const {
    for (const auto& [path, contents] : files_) {
      fn(path, *contents);
    }
  }

  // Equal paths with equal contents, shared or not.
  bool operator==(const SourceTree& other) const;

 private:
  std::map<std::string, std::shared_ptr<const std::string>, std::less<>>
      files_;
};

// One step of a minimal line edit script.
struct DiffOp {
  enum class Kind { kKeep, kDelete, kInsert };
  Kind kind = Kind::kKeep;
  std::string line;
};

// Myers O(ND) minimal diff between two line sequences.
std::vector<DiffOp> DiffLines(const std::vector<std::string>& a,
                              const std::vector<std::string>& b);

// A hunk of a unified diff. `lines` carry their ' '/'-'/'+' prefix.
struct Hunk {
  int a_start = 0;  // 1-based first line in the pre file (0 if a_len == 0)
  int a_len = 0;
  int b_start = 0;
  int b_len = 0;
  std::vector<std::string> lines;
};

struct FilePatch {
  std::string path;
  bool is_new = false;     // --- /dev/null
  bool is_delete = false;  // +++ /dev/null
  std::vector<Hunk> hunks;
};

struct Patch {
  std::vector<FilePatch> files;

  // Total changed lines (insertions + deletions), the paper's Figure 3
  // x-axis ("lines of code in the patch").
  int ChangedLines() const;
  // Paths touched by the patch, each once, in first-section order.
  std::vector<std::string> TouchedPaths() const;
};

// Renders the unified diff transforming `pre` into `post` with `context`
// lines of context. Files present in only one tree become whole-file
// additions/deletions. Returns "" when the trees are identical.
std::string MakeUnifiedDiff(const SourceTree& pre, const SourceTree& post,
                            int context = 3);

// Parses a unified diff. Accepts "--- a/path" / "+++ b/path" and bare
// "--- path" headers; ignores any leading prose before the first header.
ks::Result<Patch> ParseUnifiedDiff(std::string_view text);

// Applies `patch` to `pre`, verifying every hunk's context. File sections
// apply in order, each to the tree the sections before it produced, so a
// path may appear in several sections. If a hunk does not match at its
// stated position, the whole file is searched for a unique exact match;
// zero or multiple matches fail the apply.
ks::Result<SourceTree> ApplyPatch(const SourceTree& pre, const Patch& patch);

// Convenience: parse and apply.
ks::Result<SourceTree> ApplyUnifiedDiff(const SourceTree& pre,
                                        std::string_view diff_text);

}  // namespace kdiff

#endif  // KSPLICE_KDIFF_DIFF_H_
