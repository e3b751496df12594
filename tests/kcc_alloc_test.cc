// Counts the heap allocations of a kcc compile: the global operator new is
// replaced by one that counts while a compile runs. The AST, its names and
// its types live in one arena per unit and the code generator keeps its
// tables in a buffer of its own, so a compile allocates per unit, not per
// node. The statements' consumer (the assembler, in a real compile) is
// left out: the sink here ignores them.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "corpus/corpus.h"
#include "kcc/codegen.h"
#include "kcc/parser.h"
#include "kcc/preprocess.h"
#include "kdiff/diff.h"
#include "ksplice/prepost.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* Allocate(size_t size, size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  size = std::max<size_t>(size, 1);
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return Allocate(size, 0); }
void* operator new(size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace kcc {
namespace {

// Parse + GenerateCode of every CVE's rebuilt pre and post .kc units, as
// the pre-post build compiles them.
TEST(KccAllocTest, ACompileAllocatesPerUnit) {
  const kdiff::SourceTree& pre = corpus::KernelSource();
  const CompileOptions options;
  const StmtSink sink = [](std::span<const kvx::Stmt>) {};
  uint64_t compiles = 0;
  uint64_t allocations = 0;
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    SCOPED_TRACE(vuln.cve);
    ks::Result<std::string> text = corpus::AmendedPatchFor(vuln);
    ASSERT_TRUE(text.ok());
    ks::Result<kdiff::Patch> patch = kdiff::ParseUnifiedDiff(*text);
    ASSERT_TRUE(patch.ok());
    ks::Result<kdiff::SourceTree> post = kdiff::ApplyPatch(pre, *patch);
    ASSERT_TRUE(post.ok());
    ks::Result<ksplice::PrePostResult> prepost =
        ksplice::RunPrePost(pre, *patch, corpus::RunBuildOptions());
    ASSERT_TRUE(prepost.ok()) << prepost.status().ToString();
    const kdiff::SourceTree& post_tree = *post;
    for (const std::string& path : prepost->rebuilt_units) {
      for (const kdiff::SourceTree* tree : {&pre, &post_tree}) {
        if (!path.ends_with(".kc") || !tree->Exists(path)) {
          continue;
        }
        ks::Result<PreprocessedSource> src = Preprocess(*tree, path);
        ASSERT_TRUE(src.ok());
        g_allocations = 0;
        g_counting = true;
        ks::Status status;
        {
          ks::Result<Unit> unit = Parse(std::move(src->text), path);
          status = unit.ok() ? GenerateCode(*unit, options, sink)
                             : unit.status();
        }
        g_counting = false;
        ASSERT_TRUE(status.ok()) << status.ToString();
        allocations += g_allocations;
        ++compiles;
      }
    }
  }
  ASSERT_GE(compiles, corpus::Vulnerabilities().size());
  const double mean = static_cast<double>(allocations) /
                      static_cast<double>(compiles);
  std::printf("%llu compiles, %.1f allocations per compile\n",
              static_cast<unsigned long long>(compiles), mean);
  EXPECT_LE(mean, 60.0);
}

}  // namespace
}  // namespace kcc
