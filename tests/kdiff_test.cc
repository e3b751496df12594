// Tests for kdiff: Myers diff properties, unified diff round trips, patch
// application with context verification.

#include <gtest/gtest.h>

#include "base/strings.h"
#include "kdiff/diff.h"

namespace kdiff {
namespace {

std::vector<std::string> Lines(std::initializer_list<const char*> lines) {
  std::vector<std::string> out;
  for (const char* line : lines) {
    out.emplace_back(line);
  }
  return out;
}

// Replays a diff script against `a` and returns the reconstruction of `b`.
std::vector<std::string> Replay(const std::vector<std::string>& a,
                                const std::vector<DiffOp>& ops) {
  std::vector<std::string> out;
  size_t ai = 0;
  for (const DiffOp& op : ops) {
    switch (op.kind) {
      case DiffOp::Kind::kKeep:
        EXPECT_LT(ai, a.size());
        EXPECT_EQ(op.line, a[ai]);
        out.push_back(a[ai++]);
        break;
      case DiffOp::Kind::kDelete:
        EXPECT_LT(ai, a.size());
        EXPECT_EQ(op.line, a[ai]);
        ++ai;
        break;
      case DiffOp::Kind::kInsert:
        out.push_back(op.line);
        break;
    }
  }
  EXPECT_EQ(ai, a.size());
  return out;
}

int EditCount(const std::vector<DiffOp>& ops) {
  int count = 0;
  for (const DiffOp& op : ops) {
    if (op.kind != DiffOp::Kind::kKeep) {
      ++count;
    }
  }
  return count;
}

TEST(DiffLinesTest, IdenticalSequences) {
  std::vector<std::string> a = Lines({"x", "y", "z"});
  std::vector<DiffOp> ops = DiffLines(a, a);
  EXPECT_EQ(EditCount(ops), 0);
  EXPECT_EQ(Replay(a, ops), a);
}

TEST(DiffLinesTest, EmptyToNonEmpty) {
  std::vector<std::string> a;
  std::vector<std::string> b = Lines({"1", "2"});
  std::vector<DiffOp> ops = DiffLines(a, b);
  EXPECT_EQ(EditCount(ops), 2);
  EXPECT_EQ(Replay(a, ops), b);
  ops = DiffLines(b, a);
  EXPECT_EQ(EditCount(ops), 2);
  EXPECT_EQ(Replay(b, ops), a);
}

TEST(DiffLinesTest, SingleLineChange) {
  std::vector<std::string> a = Lines({"int f() {", "  return 0;", "}"});
  std::vector<std::string> b = Lines({"int f() {", "  return 1;", "}"});
  std::vector<DiffOp> ops = DiffLines(a, b);
  EXPECT_EQ(EditCount(ops), 2);  // one delete + one insert
  EXPECT_EQ(Replay(a, ops), b);
}

TEST(DiffLinesTest, MinimalityOnKnownCase) {
  // Classic Myers example: ABCABBA -> CBABAC has edit distance 5.
  std::vector<std::string> a = Lines({"A", "B", "C", "A", "B", "B", "A"});
  std::vector<std::string> b = Lines({"C", "B", "A", "B", "A", "C"});
  std::vector<DiffOp> ops = DiffLines(a, b);
  EXPECT_EQ(EditCount(ops), 5);
  EXPECT_EQ(Replay(a, ops), b);
}

// Property sweep: pseudo-random sequences, replay always reconstructs b.
class DiffPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DiffPropertyTest, ReplayReconstructs) {
  uint32_t seed = static_cast<uint32_t>(GetParam()) * 2654435761u + 1;
  auto next = [&seed]() {
    seed = seed * 1103515245 + 12345;
    return (seed >> 16) & 0x7fff;
  };
  std::vector<std::string> a;
  std::vector<std::string> b;
  int n = static_cast<int>(next() % 40);
  for (int i = 0; i < n; ++i) {
    a.push_back(std::to_string(next() % 8));
  }
  int m = static_cast<int>(next() % 40);
  for (int i = 0; i < m; ++i) {
    b.push_back(std::to_string(next() % 8));
  }
  std::vector<DiffOp> ops = DiffLines(a, b);
  EXPECT_EQ(Replay(a, ops), b);
  // Edit count is bounded by the trivial script.
  EXPECT_LE(EditCount(ops), n + m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest, ::testing::Range(0, 25));

// Unified diff ------------------------------------------------------------

SourceTree TreeWith(std::initializer_list<std::pair<const char*, const char*>>
                        files) {
  SourceTree tree;
  for (const auto& [path, contents] : files) {
    tree.Write(path, contents);
  }
  return tree;
}

TEST(UnifiedDiffTest, IdenticalTreesEmptyDiff) {
  SourceTree t = TreeWith({{"a.kc", "x\ny\n"}});
  EXPECT_EQ(MakeUnifiedDiff(t, t), "");
}

TEST(UnifiedDiffTest, RoundTripSimpleEdit) {
  SourceTree pre = TreeWith({{"fs/exec.kc", "a\nb\nc\nd\ne\nf\ng\n"}});
  SourceTree post = TreeWith({{"fs/exec.kc", "a\nb\nc\nD\ne\nf\ng\n"}});
  std::string diff = MakeUnifiedDiff(pre, post);
  EXPECT_NE(diff.find("--- a/fs/exec.kc"), std::string::npos);
  EXPECT_NE(diff.find("+++ b/fs/exec.kc"), std::string::npos);
  EXPECT_NE(diff.find("-d"), std::string::npos);
  EXPECT_NE(diff.find("+D"), std::string::npos);

  ks::Result<SourceTree> applied = ApplyUnifiedDiff(pre, diff);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, post);
}

TEST(UnifiedDiffTest, RoundTripFileCreationAndDeletion) {
  SourceTree pre = TreeWith({{"old.kc", "gone\n"}, {"keep.kc", "k\n"}});
  SourceTree post = TreeWith({{"new.kc", "fresh\nfile\n"}, {"keep.kc", "k\n"}});
  std::string diff = MakeUnifiedDiff(pre, post);
  EXPECT_NE(diff.find("--- /dev/null"), std::string::npos);
  EXPECT_NE(diff.find("+++ /dev/null"), std::string::npos);
  ks::Result<SourceTree> applied = ApplyUnifiedDiff(pre, diff);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, post);
}

// Applying a patch shares every untouched file's contents with the pre tree
// and gives each patched file its own; equality compares contents either
// way.
TEST(UnifiedDiffTest, ApplySharesUntouchedFiles) {
  SourceTree pre = TreeWith({{"edit.kc", "a\nb\nc\n"}, {"keep.kc", "k\n"}});
  SourceTree want = TreeWith({{"edit.kc", "a\nB\nc\n"}, {"keep.kc", "k\n"}});
  ks::Result<SourceTree> post =
      ApplyUnifiedDiff(pre, MakeUnifiedDiff(pre, want));
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post->Find("keep.kc"), pre.Find("keep.kc"));
  EXPECT_NE(post->Find("edit.kc"), pre.Find("edit.kc"));
  EXPECT_EQ(*pre.Find("edit.kc"), "a\nb\nc\n");
  EXPECT_EQ(*post, want);
  EXPECT_NE(post->Find("keep.kc"), want.Find("keep.kc"));
  EXPECT_FALSE(*post == pre);
  // Rewriting a shared file in one tree leaves the other's copy alone.
  SourceTree copy = pre;
  copy.Write("keep.kc", "changed\n");
  EXPECT_EQ(*pre.Find("keep.kc"), "k\n");
  EXPECT_FALSE(copy == pre);
}

TEST(UnifiedDiffTest, RoundTripMultipleHunksAndFiles) {
  std::string big_pre;
  std::string big_post;
  for (int i = 0; i < 60; ++i) {
    big_pre += ks::StrPrintf("line %d\n", i);
    if (i == 10) {
      big_post += "changed ten\n";
    } else if (i == 50) {
      big_post += "changed fifty\nplus extra\n";
    } else {
      big_post += ks::StrPrintf("line %d\n", i);
    }
  }
  SourceTree pre = TreeWith({{"m.kc", big_pre.c_str()},
                             {"n.kc", "one\ntwo\nthree\n"}});
  SourceTree post = TreeWith({{"m.kc", big_post.c_str()},
                              {"n.kc", "one\ntwo!\nthree\n"}});
  std::string diff = MakeUnifiedDiff(pre, post);
  ks::Result<Patch> patch = ParseUnifiedDiff(diff);
  ASSERT_TRUE(patch.ok()) << patch.status().ToString();
  EXPECT_EQ(patch->files.size(), 2u);
  EXPECT_EQ(patch->files[0].hunks.size(), 2u);  // two distant hunks in m.kc
  ks::Result<SourceTree> applied = ApplyPatch(pre, *patch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, post);
}

TEST(UnifiedDiffTest, NearbyChangesMergeIntoOneHunk) {
  SourceTree pre = TreeWith({{"f.kc", "a\nb\nc\nd\ne\nf\ng\nh\n"}});
  SourceTree post = TreeWith({{"f.kc", "a\nB\nc\nd\ne\nF\ng\nh\n"}});
  std::string diff = MakeUnifiedDiff(pre, post);
  ks::Result<Patch> patch = ParseUnifiedDiff(diff);
  ASSERT_TRUE(patch.ok());
  EXPECT_EQ(patch->files[0].hunks.size(), 1u);
  ks::Result<SourceTree> applied = ApplyPatch(pre, *patch);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, post);
}

TEST(UnifiedDiffTest, ChangedLinesCount) {
  SourceTree pre = TreeWith({{"f.kc", "a\nb\nc\n"}});
  SourceTree post = TreeWith({{"f.kc", "a\nB\nB2\nc\n"}});
  ks::Result<Patch> patch = ParseUnifiedDiff(MakeUnifiedDiff(pre, post));
  ASSERT_TRUE(patch.ok());
  // -b +B +B2 = 3 changed lines.
  EXPECT_EQ(patch->ChangedLines(), 3);
  EXPECT_EQ(patch->TouchedPaths(), std::vector<std::string>{"f.kc"});
}

TEST(UnifiedDiffTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseUnifiedDiff("not a diff at all\n").ok());
  EXPECT_FALSE(ParseUnifiedDiff("--- a/x\nmissing plus\n").ok());
  EXPECT_FALSE(
      ParseUnifiedDiff("--- a/x\n+++ b/x\n@@ bogus @@\n").ok());
  // Truncated hunk body.
  EXPECT_FALSE(
      ParseUnifiedDiff("--- a/x\n+++ b/x\n@@ -1,3 +1,3 @@\n a\n").ok());
}

TEST(UnifiedDiffTest, ParseAcceptsGitStyleProse) {
  std::string diff =
      "commit deadbeef\nAuthor: someone\n\n"
      "    fix the bug\n\n"
      "diff --git a/f.kc b/f.kc\nindex 111..222 100644\n"
      "--- a/f.kc\n+++ b/f.kc\n@@ -1,3 +1,3 @@\n a\n-b\n+B\n c\n";
  ks::Result<Patch> patch = ParseUnifiedDiff(diff);
  ASSERT_TRUE(patch.ok()) << patch.status().ToString();
  SourceTree pre = TreeWith({{"f.kc", "a\nb\nc\n"}});
  ks::Result<SourceTree> applied = ApplyPatch(pre, *patch);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied->Read("f.kc"), "a\nB\nc\n");
}

TEST(UnifiedDiffTest, ApplyRejectsContextMismatch) {
  std::string diff =
      "--- a/f.kc\n+++ b/f.kc\n@@ -1,3 +1,3 @@\n a\n-b\n+B\n c\n";
  SourceTree pre = TreeWith({{"f.kc", "completely\ndifferent\nfile\n"}});
  ks::Result<SourceTree> applied = ApplyUnifiedDiff(pre, diff);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), ks::ErrorCode::kAborted);
}

TEST(UnifiedDiffTest, ApplyFindsDriftedHunkByUniqueContext) {
  // The hunk says line 1 but the real match is further down; a unique
  // context match is accepted (like patch(1) fuzzing by search).
  std::string diff =
      "--- a/f.kc\n+++ b/f.kc\n@@ -1,3 +1,3 @@\n a\n-b\n+B\n c\n";
  SourceTree pre =
      TreeWith({{"f.kc", "extra1\nextra2\nextra3\na\nb\nc\ntail\n"}});
  ks::Result<SourceTree> applied = ApplyUnifiedDiff(pre, diff);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied->Read("f.kc"), "extra1\nextra2\nextra3\na\nB\nc\ntail\n");
}

TEST(UnifiedDiffTest, ApplyRejectsAmbiguousDriftedHunk) {
  std::string diff =
      "--- a/f.kc\n+++ b/f.kc\n@@ -9,3 +9,3 @@\n a\n-b\n+B\n c\n";
  // Two identical regions: ambiguous.
  SourceTree pre = TreeWith({{"f.kc", "a\nb\nc\nmid\na\nb\nc\n"}});
  ks::Result<SourceTree> applied = ApplyUnifiedDiff(pre, diff);
  ASSERT_FALSE(applied.ok());
}

TEST(UnifiedDiffTest, ApplyMissingFileFails) {
  std::string diff =
      "--- a/ghost.kc\n+++ b/ghost.kc\n@@ -1,1 +1,1 @@\n-a\n+b\n";
  SourceTree pre;
  EXPECT_FALSE(ApplyUnifiedDiff(pre, diff).ok());
}

TEST(UnifiedDiffTest, CreateExistingFileFails) {
  std::string diff = "--- /dev/null\n+++ b/f.kc\n@@ -0,0 +1,1 @@\n+x\n";
  SourceTree pre = TreeWith({{"f.kc", "already\n"}});
  EXPECT_EQ(ApplyUnifiedDiff(pre, diff).status().code(),
            ks::ErrorCode::kAlreadyExists);
}

// A patch series concatenated into one file has several sections for the
// same path; each applies on top of the sections before it.
constexpr char kTwelveLines[] =
    "l1\nl2\nl3\nl4\nl5\nl6\nl7\nl8\nl9\nl10\nl11\nl12\n";

TEST(UnifiedDiffTest, TwoSectionsForOnePathBothApply) {
  std::string diff =
      "--- a/a.kc\n+++ b/a.kc\n@@ -1,2 +1,2 @@\n-l1\n+L1\n l2\n"
      "--- a/a.kc\n+++ b/a.kc\n@@ -9,3 +9,3 @@\n l9\n-l10\n+L10\n l11\n";
  ks::Result<Patch> patch = ParseUnifiedDiff(diff);
  ASSERT_TRUE(patch.ok()) << patch.status().ToString();
  EXPECT_EQ(patch->files.size(), 2u);
  EXPECT_EQ(patch->TouchedPaths(), std::vector<std::string>{"a.kc"});
  ks::Result<SourceTree> applied =
      ApplyPatch(TreeWith({{"a.kc", kTwelveLines}}), *patch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied->Read("a.kc"),
            "L1\nl2\nl3\nl4\nl5\nl6\nl7\nl8\nl9\nL10\nl11\nl12\n");
}

TEST(UnifiedDiffTest, DeleteThenCreateOnePathInOnePatch) {
  std::string diff =
      "--- a/f.kc\n+++ /dev/null\n@@ -1,1 +0,0 @@\n-old\n"
      "--- /dev/null\n+++ b/f.kc\n@@ -0,0 +1,2 @@\n+new\n+file\n";
  ks::Result<Patch> patch = ParseUnifiedDiff(diff);
  ASSERT_TRUE(patch.ok()) << patch.status().ToString();
  EXPECT_EQ(patch->TouchedPaths(), std::vector<std::string>{"f.kc"});
  ks::Result<SourceTree> applied =
      ApplyPatch(TreeWith({{"f.kc", "old\n"}}), *patch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied->Read("f.kc"), "new\nfile\n");
}

TEST(UnifiedDiffTest, ConflictingSectionsForOnePathAbort) {
  // The second section still expects l1, which the first replaced.
  std::string diff =
      "--- a/a.kc\n+++ b/a.kc\n@@ -1,2 +1,2 @@\n-l1\n+L1\n l2\n"
      "--- a/a.kc\n+++ b/a.kc\n@@ -1,2 +1,2 @@\n-l1\n+X1\n l2\n";
  ks::Result<SourceTree> applied =
      ApplyUnifiedDiff(TreeWith({{"a.kc", kTwelveLines}}), diff);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), ks::ErrorCode::kAborted);
}

TEST(UnifiedDiffTest, ContextWidthVariants) {
  SourceTree pre = TreeWith({{"f.kc", "a\nb\nc\nd\ne\nf\ng\nh\ni\n"}});
  SourceTree post = TreeWith({{"f.kc", "a\nb\nc\nd\nE\nf\ng\nh\ni\n"}});
  for (int context : {0, 1, 3, 10}) {
    std::string diff = MakeUnifiedDiff(pre, post, context);
    ks::Result<SourceTree> applied = ApplyUnifiedDiff(pre, diff);
    ASSERT_TRUE(applied.ok()) << "context=" << context << "\n" << diff;
    EXPECT_EQ(*applied, post) << "context=" << context;
  }
}

TEST(UnifiedDiffTest, AdjacentEditsAtFileBoundaries) {
  // Changes at the very first and very last line.
  SourceTree pre = TreeWith({{"f.kc", "first\nmid1\nmid2\nlast\n"}});
  SourceTree post = TreeWith({{"f.kc", "FIRST\nmid1\nmid2\nLAST\n"}});
  std::string diff = MakeUnifiedDiff(pre, post);
  ks::Result<SourceTree> applied = ApplyUnifiedDiff(pre, diff);
  ASSERT_TRUE(applied.ok()) << diff;
  EXPECT_EQ(*applied, post);
}

TEST(UnifiedDiffTest, EmptyFileTransitions) {
  // Empty -> non-empty and back, as in-place edits (not file add/remove).
  SourceTree pre = TreeWith({{"f.kc", ""}});
  SourceTree post = TreeWith({{"f.kc", "now has content\n"}});
  std::string diff = MakeUnifiedDiff(pre, post);
  ks::Result<SourceTree> applied = ApplyUnifiedDiff(pre, diff);
  ASSERT_TRUE(applied.ok()) << diff;
  EXPECT_EQ(*applied, post);

  std::string back = MakeUnifiedDiff(post, pre);
  ks::Result<SourceTree> reverted = ApplyUnifiedDiff(post, back);
  ASSERT_TRUE(reverted.ok()) << back;
  EXPECT_EQ(*reverted, pre);
}

// Whole-tree property: random edits over a multi-file tree round-trip
// through MakeUnifiedDiff + ApplyPatch.
class TreeRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeRoundTripTest, DiffThenApplyIsIdentity) {
  uint32_t seed = static_cast<uint32_t>(GetParam()) * 40503u + 7;
  auto next = [&seed]() {
    seed = seed * 1103515245 + 12345;
    return (seed >> 16) & 0x7fff;
  };
  SourceTree pre;
  for (int f = 0; f < 4; ++f) {
    std::string contents;
    int lines = 5 + static_cast<int>(next() % 30);
    for (int i = 0; i < lines; ++i) {
      contents += ks::StrPrintf("file%d line%d v%u\n", f, i, next() % 4);
    }
    pre.Write(ks::StrPrintf("dir/f%d.kc", f), contents);
  }
  // Random edits: change, insert, delete lines; maybe add/remove a file.
  SourceTree post = pre;
  for (const std::string& path : pre.Paths()) {
    if (next() % 4 == 0) {
      continue;  // leave unchanged
    }
    std::vector<std::string> lines = ks::SplitLines(*post.Read(path));
    int edits = 1 + static_cast<int>(next() % 4);
    for (int e = 0; e < edits && !lines.empty(); ++e) {
      size_t at = next() % lines.size();
      switch (next() % 3) {
        case 0:
          lines[at] = ks::StrPrintf("edited %u", next());
          break;
        case 1:
          lines.insert(lines.begin() + static_cast<long>(at),
                       ks::StrPrintf("inserted %u", next()));
          break;
        case 2:
          lines.erase(lines.begin() + static_cast<long>(at));
          break;
      }
    }
    std::string joined;
    for (const std::string& line : lines) {
      joined += line + "\n";
    }
    post.Write(path, joined);
  }
  if (next() % 2 == 0) {
    post.Write("dir/brand_new.kc", "created\nby patch\n");
  }

  std::string diff = MakeUnifiedDiff(pre, post);
  if (diff.empty()) {
    EXPECT_EQ(pre, post);
    return;
  }
  ks::Result<SourceTree> applied = ApplyUnifiedDiff(pre, diff);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString() << "\n" << diff;
  EXPECT_EQ(*applied, post) << diff;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRoundTripTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace kdiff
