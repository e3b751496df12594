#include "kcc/preprocess.h"

#include <algorithm>
#include <set>

#include "base/strings.h"

namespace kcc {

namespace {

constexpr int kMaxIncludeDepth = 32;

// Parses one directive line of `path` (`directive` is the trimmed line and
// starts with '#'): the quoted include target, or why the line is not one.
ks::Result<std::string> ParseInclude(std::string_view directive,
                                     const std::string& path, int line_no) {
  std::string_view rest = ks::Trim(directive.substr(1));
  if (!ks::StartsWith(rest, "include")) {
    return ks::InvalidArgument(ks::StrPrintf(
        "%s:%d: unsupported preprocessor directive '%s'", path.c_str(),
        line_no, std::string(directive).c_str()));
  }
  rest = ks::Trim(rest.substr(std::string_view("include").size()));
  if (rest.size() < 2 || rest.front() != '"' || rest.back() != '"') {
    return ks::InvalidArgument(
        ks::StrPrintf("%s:%d: #include needs a quoted tree-relative path",
                      path.c_str(), line_no));
  }
  return std::string(rest.substr(1, rest.size() - 2));
}

ks::Status TooDeep(const std::string& path) {
  return ks::InvalidArgument(
      ks::StrPrintf("%s: include nesting too deep", path.c_str()));
}

ks::Status Expand(const kdiff::SourceTree& tree, const std::string& path,
                  std::set<std::string>& seen, std::string& out,
                  std::vector<std::string>& includes, int depth) {
  if (depth > kMaxIncludeDepth) {
    return TooDeep(path);
  }
  ks::Result<std::string> contents = tree.Read(path);
  if (!contents.ok()) {
    return ks::Status(contents.status()).WithContext("preprocess");
  }
  int line_no = 0;
  for (const std::string& line : ks::SplitLines(*contents)) {
    ++line_no;
    std::string_view trimmed = ks::Trim(line);
    if (!ks::StartsWith(trimmed, "#")) {
      out += line;
      out += '\n';
      continue;
    }
    KS_ASSIGN_OR_RETURN(std::string target,
                        ParseInclude(trimmed, path, line_no));
    if (seen.count(target) != 0) {
      continue;  // include-once
    }
    seen.insert(target);
    includes.push_back(target);
    KS_RETURN_IF_ERROR(Expand(tree, target, seen, out, includes, depth + 1));
  }
  return ks::OkStatus();
}

}  // namespace

ks::Result<PreprocessedSource> Preprocess(const kdiff::SourceTree& tree,
                                          const std::string& path) {
  PreprocessedSource result;
  std::set<std::string> seen{path};
  KS_RETURN_IF_ERROR(
      Expand(tree, path, seen, result.text, result.includes, 0));
  return result;
}

IncludeGraph::IncludeGraph(const kdiff::SourceTree& tree) {
  std::vector<std::string> units;
  for (const std::string& path : tree.Paths()) {
    if (ks::EndsWith(path, ".kc")) {
      units.push_back(path);
    }
  }
  ScanFrom(tree, std::move(units));
}

IncludeGraph::IncludeGraph(const kdiff::SourceTree& tree,
                           const std::string& unit) {
  ScanFrom(tree, {unit});
}

void IncludeGraph::Rescan(const kdiff::SourceTree& tree,
                          const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    files_.erase(path);
  }
  ScanFrom(tree, paths);
}

// Records the include lines of every file in `pending` not yet scanned,
// and of every file those reach. Files are read in place, one '#' at a
// time: a directive is a line whose first non-blank character is '#', and
// only directives are copied out.
void IncludeGraph::ScanFrom(const kdiff::SourceTree& tree,
                            std::vector<std::string> pending) {
  while (!pending.empty()) {
    std::string path = std::move(pending.back());
    pending.pop_back();
    const std::string* contents = tree.Find(path);
    if (contents == nullptr || files_.count(path) != 0) {
      continue;  // a missing file is reported by Closure
    }
    File& file = files_[path];
    std::string_view text = *contents;
    int line_no = 1;  // the line `counted` is on
    size_t counted = 0;
    for (size_t hash = text.find('#'); hash != std::string_view::npos;
         hash = text.find('#', hash + 1)) {
      size_t begin = text.rfind('\n', hash);
      begin = begin == std::string_view::npos ? 0 : begin + 1;
      if (!ks::Trim(text.substr(begin, hash - begin)).empty()) {
        continue;  // not the first character of its line
      }
      size_t end = std::min(text.find('\n', hash), text.size());
      line_no += static_cast<int>(
          std::count(text.begin() + counted, text.begin() + begin, '\n'));
      counted = begin;
      ks::Result<std::string> target =
          ParseInclude(ks::Trim(text.substr(hash, end - hash)), path, line_no);
      if (!target.ok()) {
        file.error = target.status();
        break;
      }
      file.includes.push_back(*target);
      pending.push_back(std::move(*target));
      hash = end;
    }
  }
}

ks::Result<std::vector<std::string>> IncludeGraph::Closure(
    const std::string& unit) const {
  std::vector<std::string> closure{unit};
  if (ks::EndsWith(unit, ".kc")) {
    KS_RETURN_IF_ERROR(Walk(unit, 0, closure));
  }
  return closure;
}

// Expand's traversal without the text: `closure` doubles as its `seen`.
ks::Status IncludeGraph::Walk(const std::string& path, int depth,
                              std::vector<std::string>& closure) const {
  if (depth > kMaxIncludeDepth) {
    return TooDeep(path);
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    return ks::NotFound(ks::StrPrintf("no such file: %s", path.c_str()))
        .WithContext("preprocess");
  }
  for (const std::string& target : it->second.includes) {
    if (std::find(closure.begin(), closure.end(), target) != closure.end()) {
      continue;  // include-once
    }
    closure.push_back(target);
    KS_RETURN_IF_ERROR(Walk(target, depth + 1, closure));
  }
  return it->second.error;
}

ks::Result<std::vector<std::string>> IncludeClosure(
    const kdiff::SourceTree& tree, const std::string& path) {
  return IncludeGraph(tree, path).Closure(path);
}

}  // namespace kcc
