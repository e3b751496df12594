#include "kdiff/diff.h"

#include <algorithm>
#include <cassert>

#include "base/strings.h"

namespace kdiff {

namespace {

// Joins lines back into file contents. Every non-empty file is
// newline-terminated, matching kernel source conventions.
std::string JoinFile(const std::vector<std::string>& lines) {
  if (lines.empty()) {
    return "";
  }
  std::string out = ks::Join(lines, "\n");
  out += '\n';
  return out;
}

}  // namespace

ks::Result<std::string> SourceTree::Read(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return ks::NotFound(ks::StrPrintf("no such file: %s", path.c_str()));
  }
  return *it->second;
}

bool SourceTree::operator==(const SourceTree& other) const {
  return std::equal(
      files_.begin(), files_.end(), other.files_.begin(), other.files_.end(),
      [](const auto& a, const auto& b) {
        return a.first == b.first &&
               (a.second == b.second || *a.second == *b.second);
      });
}

std::vector<std::string> SourceTree::Paths() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, contents] : files_) {
    out.push_back(path);
  }
  return out;
}

std::vector<DiffOp> DiffLines(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int max = n + m;
  std::vector<DiffOp> ops;
  if (max == 0) {
    return ops;
  }

  // Myers' greedy algorithm, recording the frontier after each d for
  // backtracking. v is indexed by diagonal k + max.
  std::vector<std::vector<int>> trace;
  std::vector<int> v(static_cast<size_t>(2 * max + 1), 0);
  int final_d = -1;
  for (int d = 0; d <= max && final_d < 0; ++d) {
    trace.push_back(v);
    for (int k = -d; k <= d; k += 2) {
      size_t idx = static_cast<size_t>(k + max);
      int x;
      if (k == -d || (k != d && v[idx - 1] < v[idx + 1])) {
        x = v[idx + 1];
      } else {
        x = v[idx - 1] + 1;
      }
      int y = x - k;
      while (x < n && y < m && a[static_cast<size_t>(x)] ==
                                   b[static_cast<size_t>(y)]) {
        ++x;
        ++y;
      }
      v[idx] = x;
      if (x >= n && y >= m) {
        final_d = d;
        break;
      }
    }
  }
  assert(final_d >= 0);

  // Backtrack from (n, m) to (0, 0), emitting ops in reverse.
  std::vector<DiffOp> rev;
  int x = n;
  int y = m;
  for (int d = final_d; d > 0; --d) {
    const std::vector<int>& prev = trace[static_cast<size_t>(d)];
    int k = x - y;
    size_t idx = static_cast<size_t>(k + max);
    int prev_k;
    if (k == -d || (k != d && prev[idx - 1] < prev[idx + 1])) {
      prev_k = k + 1;  // came from an insertion (line of b)
    } else {
      prev_k = k - 1;  // came from a deletion (line of a)
    }
    int prev_x = trace[static_cast<size_t>(d)][static_cast<size_t>(prev_k + max)];
    int prev_y = prev_x - prev_k;
    while (x > prev_x && y > prev_y) {
      --x;
      --y;
      rev.push_back({DiffOp::Kind::kKeep, a[static_cast<size_t>(x)]});
    }
    if (prev_k == k + 1) {
      --y;
      rev.push_back({DiffOp::Kind::kInsert, b[static_cast<size_t>(y)]});
    } else {
      --x;
      rev.push_back({DiffOp::Kind::kDelete, a[static_cast<size_t>(x)]});
    }
  }
  while (x > 0 && y > 0) {
    --x;
    --y;
    rev.push_back({DiffOp::Kind::kKeep, a[static_cast<size_t>(x)]});
  }
  assert(x == 0 && y == 0);
  ops.assign(rev.rbegin(), rev.rend());
  return ops;
}

int Patch::ChangedLines() const {
  int count = 0;
  for (const FilePatch& file : files) {
    for (const Hunk& hunk : file.hunks) {
      for (const std::string& line : hunk.lines) {
        if (!line.empty() && (line[0] == '+' || line[0] == '-')) {
          ++count;
        }
      }
    }
  }
  return count;
}

std::vector<std::string> Patch::TouchedPaths() const {
  std::vector<std::string> out;
  out.reserve(files.size());
  for (const FilePatch& file : files) {
    if (std::find(out.begin(), out.end(), file.path) == out.end()) {
      out.push_back(file.path);
    }
  }
  return out;
}

namespace {

// Renders hunks for one file's edit script.
void EmitFileDiff(std::string& out, const std::string& path,
                  const std::vector<DiffOp>& ops, int context, bool is_new,
                  bool is_delete) {
  out += is_new ? "--- /dev/null\n" : "--- a/" + path + "\n";
  out += is_delete ? "+++ /dev/null\n" : "+++ b/" + path + "\n";

  // Identify hunk ranges: indices of change ops, each extended by context.
  size_t i = 0;
  while (i < ops.size()) {
    if (ops[i].kind == DiffOp::Kind::kKeep) {
      ++i;
      continue;
    }
    // Start of a change group; extend backwards by `context` keeps.
    size_t start = i;
    size_t lead = 0;
    while (start > 0 && lead < static_cast<size_t>(context) &&
           ops[start - 1].kind == DiffOp::Kind::kKeep) {
      --start;
      ++lead;
    }
    // Extend forward: include changes, and up to 2*context keeps between
    // changes (merging close hunks), trailing `context` keeps at the end.
    size_t end = i;
    size_t last_change = i;
    while (end < ops.size()) {
      if (ops[end].kind != DiffOp::Kind::kKeep) {
        last_change = end;
        ++end;
        continue;
      }
      // Count the run of keeps.
      size_t run_start = end;
      while (end < ops.size() && ops[end].kind == DiffOp::Kind::kKeep) {
        ++end;
      }
      size_t run = end - run_start;
      if (end == ops.size() || run > static_cast<size_t>(2 * context)) {
        // Close the hunk after `context` keeps.
        end = run_start + std::min(run, static_cast<size_t>(context));
        break;
      }
      // else: the next change is close; keep going (keeps stay in hunk).
    }
    (void)last_change;

    // Compute line numbers: count a/b lines before `start`.
    int a_before = 0;
    int b_before = 0;
    for (size_t j = 0; j < start; ++j) {
      if (ops[j].kind != DiffOp::Kind::kInsert) {
        ++a_before;
      }
      if (ops[j].kind != DiffOp::Kind::kDelete) {
        ++b_before;
      }
    }
    int a_len = 0;
    int b_len = 0;
    std::string body;
    for (size_t j = start; j < end; ++j) {
      switch (ops[j].kind) {
        case DiffOp::Kind::kKeep:
          body += " " + ops[j].line + "\n";
          ++a_len;
          ++b_len;
          break;
        case DiffOp::Kind::kDelete:
          body += "-" + ops[j].line + "\n";
          ++a_len;
          break;
        case DiffOp::Kind::kInsert:
          body += "+" + ops[j].line + "\n";
          ++b_len;
          break;
      }
    }
    int a_start = a_len > 0 ? a_before + 1 : a_before;
    int b_start = b_len > 0 ? b_before + 1 : b_before;
    out += ks::StrPrintf("@@ -%d,%d +%d,%d @@\n", a_start, a_len, b_start,
                         b_len);
    out += body;
    i = end;
  }
}

}  // namespace

std::string MakeUnifiedDiff(const SourceTree& pre, const SourceTree& post,
                            int context) {
  std::string out;
  // Union of paths, sorted (both trees are std::map-backed).
  std::vector<std::string> paths = pre.Paths();
  for (const std::string& p : post.Paths()) {
    if (!pre.Exists(p)) {
      paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());

  for (const std::string& path : paths) {
    bool in_pre = pre.Exists(path);
    bool in_post = post.Exists(path);
    std::vector<std::string> a =
        in_pre ? ks::SplitLines(*pre.Read(path)) : std::vector<std::string>{};
    std::vector<std::string> b = in_post ? ks::SplitLines(*post.Read(path))
                                         : std::vector<std::string>{};
    if (in_pre && in_post && a == b) {
      continue;
    }
    std::vector<DiffOp> ops = DiffLines(a, b);
    EmitFileDiff(out, path, ops, context, !in_pre, !in_post);
  }
  return out;
}

namespace {

// Strips "a/" or "b/" from a diff header path.
std::string CleanPath(std::string_view raw) {
  std::string_view path = ks::Trim(raw);
  // Headers may carry a timestamp after a tab.
  size_t tab = path.find('\t');
  if (tab != std::string_view::npos) {
    path = path.substr(0, tab);
  }
  if (ks::StartsWith(path, "a/") || ks::StartsWith(path, "b/")) {
    path = path.substr(2);
  }
  return std::string(path);
}

ks::Result<Hunk> ParseHunkHeader(const std::string& line) {
  // "@@ -a[,b] +c[,d] @@[ anything]"
  Hunk hunk;
  int a_start = 0;
  int a_len = 1;
  int b_start = 0;
  int b_len = 1;
  int consumed = 0;
  if (std::sscanf(line.c_str(), "@@ -%d,%d +%d,%d @@%n", &a_start, &a_len,
                  &b_start, &b_len, &consumed) == 4 &&
      consumed > 0) {
  } else if (std::sscanf(line.c_str(), "@@ -%d +%d,%d @@%n", &a_start,
                         &b_start, &b_len, &consumed) == 3 &&
             consumed > 0) {
    a_len = 1;
  } else if (std::sscanf(line.c_str(), "@@ -%d,%d +%d @@%n", &a_start, &a_len,
                         &b_start, &consumed) == 3 &&
             consumed > 0) {
    b_len = 1;
  } else if (std::sscanf(line.c_str(), "@@ -%d +%d @@%n", &a_start, &b_start,
                         &consumed) == 2 &&
             consumed > 0) {
    a_len = 1;
    b_len = 1;
  } else {
    return ks::InvalidArgument(
        ks::StrPrintf("bad hunk header: %s", line.c_str()));
  }
  hunk.a_start = a_start;
  hunk.a_len = a_len;
  hunk.b_start = b_start;
  hunk.b_len = b_len;
  return hunk;
}

}  // namespace

ks::Result<Patch> ParseUnifiedDiff(std::string_view text) {
  Patch patch;
  std::vector<std::string> lines = ks::SplitLines(text);
  size_t i = 0;
  while (i < lines.size()) {
    if (!ks::StartsWith(lines[i], "--- ")) {
      ++i;  // prose / git headers before the file header
      continue;
    }
    if (i + 1 >= lines.size() || !ks::StartsWith(lines[i + 1], "+++ ")) {
      return ks::InvalidArgument(
          ks::StrPrintf("'---' header without '+++' at line %zu", i + 1));
    }
    std::string a_path = CleanPath(std::string_view(lines[i]).substr(4));
    std::string b_path = CleanPath(std::string_view(lines[i + 1]).substr(4));
    FilePatch file;
    file.is_new = a_path == "/dev/null";
    file.is_delete = b_path == "/dev/null";
    if (file.is_new && file.is_delete) {
      return ks::InvalidArgument("patch with both sides /dev/null");
    }
    file.path = file.is_new ? b_path : a_path;
    i += 2;

    while (i < lines.size() && ks::StartsWith(lines[i], "@@")) {
      KS_ASSIGN_OR_RETURN(Hunk hunk, ParseHunkHeader(lines[i]));
      ++i;
      int a_seen = 0;
      int b_seen = 0;
      while (i < lines.size() && (a_seen < hunk.a_len || b_seen < hunk.b_len)) {
        const std::string& line = lines[i];
        if (ks::StartsWith(line, "\\ No newline")) {
          ++i;
          continue;
        }
        char tag = line.empty() ? ' ' : line[0];
        if (tag == ' ' || line.empty()) {
          ++a_seen;
          ++b_seen;
        } else if (tag == '-') {
          ++a_seen;
        } else if (tag == '+') {
          ++b_seen;
        } else {
          return ks::InvalidArgument(
              ks::StrPrintf("unexpected line in hunk: '%s'", line.c_str()));
        }
        hunk.lines.push_back(line.empty() ? std::string(" ") : line);
        ++i;
      }
      if (a_seen != hunk.a_len || b_seen != hunk.b_len) {
        return ks::InvalidArgument(ks::StrPrintf(
            "hunk for %s is truncated (have -%d/+%d, want -%d/+%d)",
            file.path.c_str(), a_seen, b_seen, hunk.a_len, hunk.b_len));
      }
      file.hunks.push_back(std::move(hunk));
    }
    if (file.hunks.empty()) {
      return ks::InvalidArgument(
          ks::StrPrintf("file %s has no hunks", file.path.c_str()));
    }
    patch.files.push_back(std::move(file));
  }
  if (patch.files.empty()) {
    return ks::InvalidArgument("patch contains no file diffs");
  }
  return patch;
}

namespace {

// The "before" lines of a hunk (keeps + deletes, prefixes stripped).
std::vector<std::string> HunkBefore(const Hunk& hunk) {
  std::vector<std::string> out;
  for (const std::string& line : hunk.lines) {
    if (line[0] == ' ' || line[0] == '-') {
      out.push_back(line.substr(1));
    }
  }
  return out;
}

bool MatchesAt(const std::vector<std::string>& lines, size_t pos,
               const std::vector<std::string>& expect) {
  if (pos + expect.size() > lines.size()) {
    return false;
  }
  for (size_t i = 0; i < expect.size(); ++i) {
    if (lines[pos + i] != expect[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

ks::Result<SourceTree> ApplyPatch(const SourceTree& pre, const Patch& patch) {
  // Each file section applies to the tree the earlier sections produced,
  // so a patch series concatenated into one file (several sections for
  // one path, or a delete followed by a create) applies in order.
  SourceTree post = pre;
  for (const FilePatch& file : patch.files) {
    if (file.is_new) {
      if (post.Exists(file.path)) {
        return ks::AlreadyExists(ks::StrPrintf(
            "patch creates %s which already exists", file.path.c_str()));
      }
      std::vector<std::string> contents;
      for (const Hunk& hunk : file.hunks) {
        for (const std::string& line : hunk.lines) {
          if (line[0] == '+') {
            contents.push_back(line.substr(1));
          } else {
            return ks::InvalidArgument(ks::StrPrintf(
                "new-file patch for %s has non-insert lines",
                file.path.c_str()));
          }
        }
      }
      post.Write(file.path, JoinFile(contents));
      continue;
    }

    const std::string* contents = post.Find(file.path);
    if (contents == nullptr) {
      return ks::Status(post.Read(file.path).status())
          .WithContext("applying patch");
    }
    std::vector<std::string> lines = ks::SplitLines(*contents);

    if (file.is_delete) {
      std::vector<std::string> expect;
      for (const Hunk& hunk : file.hunks) {
        for (const std::string& line : hunk.lines) {
          if (line[0] != '-') {
            return ks::InvalidArgument(ks::StrPrintf(
                "delete patch for %s has non-delete lines",
                file.path.c_str()));
          }
          expect.push_back(line.substr(1));
        }
      }
      if (lines != expect) {
        return ks::Aborted(ks::StrPrintf(
            "delete patch for %s does not match file contents",
            file.path.c_str()));
      }
      post.Remove(file.path);
      continue;
    }

    // Regular edit: apply hunks in order, tracking the line offset
    // introduced by earlier hunks.
    int offset = 0;
    for (size_t hi = 0; hi < file.hunks.size(); ++hi) {
      const Hunk& hunk = file.hunks[hi];
      std::vector<std::string> before = HunkBefore(hunk);
      // Position stated by the hunk, adjusted by previous hunks' drift.
      // a_start is 1-based; a pure-insert hunk inserts *after* a_start.
      long stated = hunk.a_len > 0 ? hunk.a_start - 1 : hunk.a_start;
      long pos = stated + offset;
      if (pos < 0 || !MatchesAt(lines, static_cast<size_t>(pos), before)) {
        // Search the file for a unique exact match.
        std::vector<size_t> matches;
        for (size_t p = 0; p + before.size() <= lines.size() + 1; ++p) {
          if (MatchesAt(lines, p, before)) {
            matches.push_back(p);
          }
        }
        if (matches.size() != 1) {
          return ks::Aborted(ks::StrPrintf(
              "hunk %zu for %s does not apply (%zu context matches)",
              hi + 1, file.path.c_str(), matches.size()));
        }
        pos = static_cast<long>(matches[0]);
      }
      // Splice: replace `before` at pos with the hunk's "after" lines.
      std::vector<std::string> after;
      for (const std::string& line : hunk.lines) {
        if (line[0] == ' ' || line[0] == '+') {
          after.push_back(line.substr(1));
        }
      }
      lines.erase(lines.begin() + pos,
                  lines.begin() + pos + static_cast<long>(before.size()));
      lines.insert(lines.begin() + pos, after.begin(), after.end());
      // Later hunks' stated positions refer to the original file; shift
      // them by the net lines this hunk inserted or removed.
      offset += static_cast<int>(after.size()) -
                static_cast<int>(before.size());
    }
    post.Write(file.path, JoinFile(lines));
  }
  return post;
}

ks::Result<SourceTree> ApplyUnifiedDiff(const SourceTree& pre,
                                        std::string_view diff_text) {
  KS_ASSIGN_OR_RETURN(Patch patch, ParseUnifiedDiff(diff_text));
  return ApplyPatch(pre, patch);
}

}  // namespace kdiff
