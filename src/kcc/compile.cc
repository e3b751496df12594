#include "kcc/compile.h"

#include "base/faultinject.h"

#include <optional>

#include "base/metrics.h"
#include "base/strings.h"
#include "base/threadpool.h"
#include "base/trace.h"
#include "kcc/codegen.h"
#include "kcc/objcache.h"
#include "kcc/parser.h"
#include "kcc/preprocess.h"
#include "kvx/asm.h"

namespace kcc {

namespace {

kvx::AsmOptions ToAsmOptions(const CompileOptions& options) {
  kvx::AsmOptions out;
  out.function_sections = options.function_sections;
  out.data_sections = options.data_sections;
  return out;
}

// Publishes one real (non-cache-served) unit compile to the registry.
void CountCompiled(const kelf::ObjectFile& obj) {
  static ks::Counter& units = ks::Metrics().GetCounter("kcc.units_compiled");
  static ks::Counter& text_bytes =
      ks::Metrics().GetCounter("kcc.text_bytes_emitted");
  units.Add(1);
  uint64_t bytes = 0;
  for (const kelf::Section& section : obj.sections()) {
    if (section.kind == kelf::SectionKind::kText) {
      bytes += section.bytes.size();
    }
  }
  text_bytes.Add(bytes);
}

// Parses and lowers one .kc unit, handing its statements to `sink`.
ks::Status GenerateUnit(const kdiff::SourceTree& tree, const std::string& path,
                        const CompileOptions& options, const StmtSink& sink) {
  KS_ASSIGN_OR_RETURN(Unit unit, ParseUnit(tree, path));
  ks::TraceSpan span("kcc.codegen");  // ends before the unit's arena is freed
  return GenerateCode(unit, options, sink);
}

}  // namespace

bool IsCompilationUnit(const std::string& path) {
  return ks::EndsWith(path, ".kc") || ks::EndsWith(path, ".kvs");
}

ks::Result<Unit> ParseUnit(const kdiff::SourceTree& tree,
                           const std::string& path) {
  ks::TraceSpan span("kcc.parse");
  KS_ASSIGN_OR_RETURN(PreprocessedSource src, Preprocess(tree, path));
  return Parse(std::move(src.text), path);
}

ks::Result<std::string> CompileToAsm(const kdiff::SourceTree& tree,
                                     const std::string& path,
                                     const CompileOptions& options) {
  std::string listing;
  KS_RETURN_IF_ERROR(GenerateUnit(
      tree, path, options,
      [&](std::span<const kvx::Stmt> stmts) { listing += kvx::Print(stmts); }));
  return listing;
}

ks::Result<kelf::ObjectFile> CompileUnit(const kdiff::SourceTree& tree,
                                         const std::string& path,
                                         const CompileOptions& options) {
  if (options.cache != nullptr) {
    // The cache strips itself from the options before compiling, so this
    // cannot recurse.
    return options.cache->GetOrCompile(tree, path, options);
  }
  KS_FAULT_POINT("kcc.compile");
  ks::TraceSpan span("kcc.compile_unit");
  span.Annotate("unit", path);
  if (ks::EndsWith(path, ".kvs")) {
    KS_ASSIGN_OR_RETURN(std::string source, tree.Read(path));
    ks::Result<kelf::ObjectFile> assembled =
        kvx::Assemble(source, path, ToAsmOptions(options));
    if (assembled.ok()) {
      CountCompiled(*assembled);
    }
    return assembled;
  }
  if (!ks::EndsWith(path, ".kc")) {
    return ks::InvalidArgument(
        ks::StrPrintf("%s is not a compilation unit", path.c_str()));
  }
  // Statements go straight to the assembler; no assembly text is built.
  // An assembler error surfaces only at Finish, so a codegen error anywhere
  // in the unit is the one reported.
  kvx::Assembler assembler(path, ToAsmOptions(options));
  KS_RETURN_IF_ERROR(GenerateUnit(
      tree, path, options,
      [&](std::span<const kvx::Stmt> stmts) { assembler.Add(stmts); }));
  ks::Result<kelf::ObjectFile> obj = assembler.Finish();
  if (!obj.ok()) {
    // Assembler rejections of compiler output are kcc bugs; the line is
    // the statement's line in the CompileToAsm listing.
    return ks::Internal(ks::StrPrintf(
        "internal: generated assembly for %s does not assemble: %s",
        path.c_str(), obj.status().message().c_str()));
  }
  CountCompiled(*obj);
  return obj;
}

ks::Result<std::vector<kelf::ObjectFile>> BuildTree(
    const kdiff::SourceTree& tree, const CompileOptions& options) {
  ks::TraceSpan span("kcc.build_tree");
  std::vector<std::string> units;
  for (const std::string& path : tree.Paths()) {
    if (IsCompilationUnit(path)) {
      units.push_back(path);
    }
  }
  if (units.empty()) {
    return ks::InvalidArgument("source tree has no compilation units");
  }
  span.Annotate("units", static_cast<uint64_t>(units.size()));
  // A cached build keys each unit by its include closure; one graph of
  // the tree serves every unit.
  std::optional<IncludeGraph> graph;
  if (options.cache != nullptr) {
    graph.emplace(tree);
  }
  // Fan out across units; each worker writes only its own slot, and the
  // reduce below walks slots in path order, so output (and the reported
  // error on failure) is identical for every worker count.
  std::vector<std::optional<ks::Result<kelf::ObjectFile>>> slots(
      units.size());
  ks::ParallelFor(options.jobs, units.size(), [&](size_t i) {
    slots[i] = graph.has_value()
                   ? options.cache->GetOrCompile(
                         tree, units[i], graph->Closure(units[i]), options)
                   : CompileUnit(tree, units[i], options);
  });
  std::vector<kelf::ObjectFile> objects;
  objects.reserve(units.size());
  for (std::optional<ks::Result<kelf::ObjectFile>>& slot : slots) {
    if (!slot->ok()) {
      return slot->status();
    }
    objects.push_back(std::move(*slot).value());
  }
  return objects;
}

}  // namespace kcc
