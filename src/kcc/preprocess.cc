#include "kcc/preprocess.h"

#include <algorithm>
#include <utility>

#include "base/strings.h"

namespace kcc {

namespace {

constexpr int kMaxIncludeDepth = 32;

// Parses one directive line of `path` (`directive` is the trimmed line and
// starts with '#'): the quoted include target, or why the line is not one.
ks::Result<std::string_view> ParseInclude(std::string_view directive,
                                          std::string_view path,
                                          int line_no) {
  std::string_view rest = ks::Trim(directive.substr(1));
  auto error = [&](const std::string& what) {
    return ks::InvalidArgument(ks::StrPrintf(
        "%s:%d: %s", std::string(path).c_str(), line_no, what.c_str()));
  };
  if (!ks::StartsWith(rest, "include")) {
    return error("unsupported preprocessor directive '" +
                 std::string(directive) + "'");
  }
  rest = ks::Trim(rest.substr(std::string_view("include").size()));
  if (rest.size() < 2 || rest.front() != '"' || rest.back() != '"') {
    return error("#include needs a quoted tree-relative path");
  }
  return rest.substr(1, rest.size() - 2);
}

ks::Status TooDeep(std::string_view path) {
  return ks::InvalidArgument(std::string(path) + ": include nesting too deep");
}

ks::Status NoSuchFile(std::string_view path) {
  return ks::NotFound("no such file: " + std::string(path))
      .WithContext("preprocess");
}

// `unit` and `includes` together are the files already expanded.
ks::Status Expand(const kdiff::SourceTree& tree, const std::string& unit,
                  std::string_view path, std::string& out,
                  std::vector<std::string>& includes, int depth) {
  if (depth > kMaxIncludeDepth) {
    return TooDeep(path);
  }
  const std::string* contents = tree.Find(path);
  if (contents == nullptr) {
    return NoSuchFile(path);
  }
  std::string_view text = *contents;
  int line_no = 0;
  // Lines as ks::SplitLines cuts them: a final '\n' ends the last line.
  for (size_t begin = 0; begin < text.size(); ++line_no) {
    size_t end = std::min(text.find('\n', begin), text.size());
    std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    std::string_view trimmed = ks::Trim(line);
    if (!ks::StartsWith(trimmed, "#")) {
      out.append(line).push_back('\n');
      continue;
    }
    KS_ASSIGN_OR_RETURN(std::string_view target,
                        ParseInclude(trimmed, path, line_no + 1));
    if (target == unit || std::find(includes.begin(), includes.end(),
                                    target) != includes.end()) {
      continue;  // include-once
    }
    includes.emplace_back(target);
    KS_RETURN_IF_ERROR(Expand(tree, unit, target, out, includes, depth + 1));
  }
  return ks::OkStatus();
}

}  // namespace

ks::Result<PreprocessedSource> Preprocess(const kdiff::SourceTree& tree,
                                          const std::string& path) {
  PreprocessedSource result;
  KS_RETURN_IF_ERROR(Expand(tree, path, path, result.text, result.includes, 0));
  return result;
}

IncludeGraph::IncludeGraph(const kdiff::SourceTree& tree)
    : tree_files_(tree.size()) {
  files_.reserve(tree_files_);
  tree.ForEachFile([this](const std::string& path, const std::string& text) {
    if (ks::EndsWith(path, ".kc")) {
      units_.push_back(static_cast<int>(files_.size()));
    }
    files_.push_back(File{path, &text, {}});
  });
  ScanFrom(units_, Side::kPre, nullptr);
}

int IncludeGraph::Find(std::string_view path) const {
  auto tree_end = files_.begin() + static_cast<std::ptrdiff_t>(tree_files_);
  auto it = std::lower_bound(
      files_.begin(), tree_end, path,
      [](const File& file, std::string_view key) { return file.path < key; });
  if (it == tree_end || it->path != path) {
    it = std::find_if(tree_end, files_.end(),
                      [path](const File& file) { return file.path == path; });
  }
  return it == files_.end() ? -1 : static_cast<int>(it - files_.begin());
}

int IncludeGraph::Intern(std::string_view path) {
  int file = Find(path);
  if (file < 0) {
    file = static_cast<int>(files_.size());
    files_.push_back(File{path, nullptr, {}});
  }
  return file;
}

const IncludeGraph::Scan& IncludeGraph::At(int file, Side side) const {
  const File& f = files_[static_cast<size_t>(file)];
  return side == Side::kPost && f.post >= 0
             ? post_[static_cast<size_t>(f.post)]
             : f.pre;
}

void IncludeGraph::AddPost(const kdiff::SourceTree& post,
                           const std::vector<std::string>& paths) {
  std::vector<int> pending;
  for (const std::string& path : paths) {
    int file = Find(path);
    if (file < 0) {
      file = Intern(owned_.emplace_front(path));
    }
    if (files_[static_cast<size_t>(file)].post < 0) {
      files_[static_cast<size_t>(file)].post = static_cast<int>(post_.size());
      post_.emplace_back();
      pending.push_back(file);
    }
  }
  ScanFrom(std::move(pending), Side::kPost, &post);
}

// Records the include lines of every file in `pending` not yet scanned on
// `side`, and of every file those reach. An untouched file reads the same
// in both trees, so only a touched one is read from `post`. A file is read
// in place, one '#' at a time: a directive is a line whose first non-blank
// character is '#', and its target is kept as a view into the file.
void IncludeGraph::ScanFrom(std::vector<int> pending, Side side,
                            const kdiff::SourceTree* post) {
  std::string_view last_target;  // most files include the same few headers
  int last_file = -1;
  while (!pending.empty()) {
    const int file = pending.back();
    pending.pop_back();
    if (At(file, side).state != Scan::State::kUnscanned) {
      continue;
    }
    const size_t f = static_cast<size_t>(file);
    const std::string_view path = files_[f].path;
    const int touched = side == Side::kPost ? files_[f].post : -1;
    const std::string* contents =
        touched >= 0 ? post->Find(path) : files_[f].contents;
    Scan scan;
    scan.state = contents == nullptr ? Scan::State::kMissing
                                     : Scan::State::kPresent;
    scan.first = static_cast<uint32_t>(edges_.size());
    std::string_view text =
        contents == nullptr ? std::string_view() : std::string_view(*contents);
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
      ks::Result<std::string_view> target = ParseInclude(
          ks::Trim(text.substr(hash, end - hash)), path, line_no);
      if (!target.ok()) {
        scan.error = target.status();
        break;
      }
      if (last_file < 0 || *target != last_target) {
        last_target = *target;
        last_file = Intern(last_target);
      }
      edges_.push_back(last_file);
      pending.push_back(edges_.back());
      hash = end;
    }
    scan.end = static_cast<uint32_t>(edges_.size());
    (touched >= 0 ? post_[static_cast<size_t>(touched)] : files_[f].pre) =
        std::move(scan);
  }
}

ks::Result<std::vector<std::string>> IncludeGraph::Closure(
    const std::string& unit, Side side) const {
  std::vector<std::string> closure{unit};
  if (!ks::EndsWith(unit, ".kc")) {
    return closure;
  }
  int file = Find(unit);
  if (file < 0) {
    return NoSuchFile(unit);
  }
  std::vector<int> files;
  std::vector<bool> seen(files_.size());
  KS_RETURN_IF_ERROR(Walk(file, 0, side, files, seen));
  for (size_t i = 1; i < files.size(); ++i) {
    closure.emplace_back(files_[static_cast<size_t>(files[i])].path);
  }
  return closure;
}

// Expand's traversal without the text: adds `file` to `closure`, then the
// files it includes that `seen`, which marks exactly `closure`, lacks.
ks::Status IncludeGraph::Walk(int file, int depth, Side side,
                              std::vector<int>& closure,
                              std::vector<bool>& seen) const {
  seen[static_cast<size_t>(file)] = true;
  closure.push_back(file);
  if (depth > kMaxIncludeDepth) {
    return TooDeep(files_[static_cast<size_t>(file)].path);
  }
  const Scan& scan = At(file, side);
  if (scan.state != Scan::State::kPresent) {
    return NoSuchFile(files_[static_cast<size_t>(file)].path);
  }
  for (uint32_t e = scan.first; e < scan.end; ++e) {
    if (!seen[static_cast<size_t>(edges_[e])]) {  // include-once
      KS_RETURN_IF_ERROR(Walk(edges_[e], depth + 1, side, closure, seen));
    }
  }
  return scan.error;
}

std::vector<std::string_view> IncludeGraph::UnitsReaching(
    const std::vector<std::string>& paths) const {
  std::vector<bool> marked(files_.size());
  for (const std::string& path : paths) {
    if (int file = Find(path); file >= 0) {
      marked[static_cast<size_t>(file)] = true;
    }
  }
  std::vector<std::string_view> out;
  std::vector<int> closure;
  std::vector<bool> seen(files_.size());
  for (int unit : units_) {
    closure.clear();
    bool reaches = !Walk(unit, 0, Side::kPre, closure, seen).ok();
    for (int file : closure) {  // clears `seen` for the next unit
      reaches = reaches || marked[static_cast<size_t>(file)];
      seen[static_cast<size_t>(file)] = false;
    }
    if (reaches) {
      out.push_back(files_[static_cast<size_t>(unit)].path);
    }
  }
  return out;
}

ks::Result<std::vector<std::string>> IncludeClosure(
    const kdiff::SourceTree& tree, const std::string& path) {
  return IncludeGraph(tree).Closure(path);
}

}  // namespace kcc
