// kcc driver: compiles KC compilation units and whole source trees to kelf
// object files.
//
// A source tree contains:
//   *.kc   KC compilation units (preprocessed, parsed, lowered, assembled)
//   *.kvs  hand-written KVX assembly units (assembled directly — the
//          analogue of the kernel's ia32entry.S, §6.3)
//   *.h    headers, consumed via #include only
//
// Builds are deterministic: the same tree and options always produce the
// same object bytes. That determinism is what lets Ksplice's run-pre check
// succeed when given the source that actually built the running kernel.
//
// A unit's object bytes depend only on its include closure (the unit plus
// every header it transitively includes) and the semantic options.
// Closures come from one kcc::IncludeGraph per tree (preprocess.h), never
// from expanding the unit: a cached BuildTree scans the tree once and keys
// every unit by its closure, and the pre–post build (ksplice::prepost)
// walks the same kind of graph to pick the units a patch can affect.

#ifndef KSPLICE_KCC_COMPILE_H_
#define KSPLICE_KCC_COMPILE_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "kcc/ast.h"
#include "kdiff/diff.h"
#include "kelf/objfile.h"

namespace kcc {

class ObjectCache;

struct CompileOptions {
  // -ffunction-sections / -fdata-sections (paper §3.2). Off reproduces the
  // monolithic layout running kernels were built with; on is what Ksplice
  // uses for pre/post builds.
  bool function_sections = false;
  bool data_sections = false;
  // Inlining threshold in AST nodes (see codegen.h). Must match between
  // the build that produced the running kernel and Ksplice's builds.
  int inline_threshold = 24;
  // Values substituted for __DATE__ / __TIME__. They land in
  // .rodata.date / .rodata.time howto sections, which run-pre matching
  // compares content-ignoring: two builds of identical source that differ
  // only here still match (paper §4.3's date/time special case).
  std::string build_date = "Jan  1 2026";
  std::string build_time = "00:00:00";

  // Build-pipeline knobs; neither affects the produced object bytes.
  //
  // Worker threads for tree-level builds (BuildTree, pre-post builds);
  // 1 = serial, 0 = one per hardware thread.
  int jobs = 1;
  // Optional shared content-addressed cache (objcache.h). When set,
  // CompileUnit is served from the cache: a unit whose include-closure
  // contents and semantic options were compiled before is never
  // recompiled. The cache is thread-safe and may outlive many builds.
  ObjectCache* cache = nullptr;
};

// Compiles one .kc unit (with #include expansion) or assembles one .kvs
// unit from `tree`.
ks::Result<kelf::ObjectFile> CompileUnit(const kdiff::SourceTree& tree,
                                         const std::string& path,
                                         const CompileOptions& options);

// Lowers one .kc unit to an assembly listing (diagnostics / tests): the
// only place kcc prints assembly text. CompileUnit assembles the same
// statements without printing them.
ks::Result<std::string> CompileToAsm(const kdiff::SourceTree& tree,
                                     const std::string& path,
                                     const CompileOptions& options);

// Parses one .kc unit (with #include expansion) without code generation.
ks::Result<Unit> ParseUnit(const kdiff::SourceTree& tree,
                           const std::string& path);

// True if `path` names a compilation unit (.kc or .kvs, not a header).
bool IsCompilationUnit(const std::string& path);

// Compiles every compilation unit in `tree`, in path order.
ks::Result<std::vector<kelf::ObjectFile>> BuildTree(
    const kdiff::SourceTree& tree, const CompileOptions& options);

}  // namespace kcc

#endif  // KSPLICE_KCC_COMPILE_H_
