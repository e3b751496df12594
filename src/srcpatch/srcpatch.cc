#include "srcpatch/srcpatch.h"

#include <algorithm>
#include <map>
#include <set>

#include "base/strings.h"
#include "kcc/parser.h"
#include "kcc/preprocess.h"
#include "ksplice/prepost.h"
#include "kvx/isa.h"

namespace srcpatch {

namespace {

const char* kName[] = {
    "applied",          "failed_assembly",     "failed_signature",
    "failed_static_local", "failed_ambiguous", "failed_other",
};

// Extracts the source text of function `index` of `unit` from `contents`:
// from its first line to the line before the next top-level declaration.
std::string FunctionSlice(const std::string& contents,
                          const kcc::Unit& unit, size_t index) {
  const kcc::FuncDecl& fn = unit.functions[index];
  int begin = fn.line;
  int end = INT32_MAX;
  auto consider = [&](int line) {
    if (line > begin && line < end) {
      end = line;
    }
  };
  for (const kcc::FuncDecl& other : unit.functions) {
    consider(other.line);
  }
  for (const kcc::GlobalDecl& global : unit.globals) {
    consider(global.line);
  }
  for (const kcc::StructDef& def : unit.structs) {
    consider(def.line);
  }
  std::vector<std::string> lines = ks::SplitLines(contents);
  std::string out;
  for (int i = begin; i < end && i <= static_cast<int>(lines.size()); ++i) {
    out += lines[static_cast<size_t>(i - 1)];
    out += '\n';
  }
  return out;
}

std::string SignatureOf(const kcc::FuncDecl& fn) {
  std::string sig = fn.ret->ToString() + " " + std::string(fn.name) + "(";
  for (size_t i = 0; i < fn.params.size(); ++i) {
    if (i != 0) {
      sig += ", ";
    }
    sig += fn.params[i].type->ToString();
  }
  sig += ")";
  return sig;
}

struct Candidate {
  std::string unit;
  std::string symbol;
};

struct Analysis {
  Report report;
  std::vector<Candidate> candidates;      // functions to replace
  std::vector<std::string> units;         // units with candidates
  kdiff::SourceTree post_tree;
};

ks::Result<Analysis> Analyze(const kdiff::SourceTree& pre_tree,
                             std::string_view patch_text,
                             const SourcePatchOptions& options) {
  Analysis analysis;
  Report& report = analysis.report;

  ks::Result<kdiff::Patch> patch = kdiff::ParseUnifiedDiff(patch_text);
  if (!patch.ok()) {
    return ks::Status(patch.status()).WithContext("srcpatch");
  }
  ks::Result<kdiff::SourceTree> post = kdiff::ApplyPatch(pre_tree, *patch);
  if (!post.ok()) {
    return ks::Status(post.status()).WithContext("srcpatch");
  }
  analysis.post_tree = *post;

  // Limitation: no assembly support.
  for (const std::string& path : patch->TouchedPaths()) {
    if (ks::EndsWith(path, ".kvs")) {
      report.outcome = Outcome::kFailedAssembly;
      report.detail = "patch modifies assembly file " + path;
      return analysis;
    }
  }

  // Source-level change detection, per touched C unit.
  std::set<std::string> unit_set;
  for (const std::string& path : patch->TouchedPaths()) {
    if (ks::EndsWith(path, ".kc") && pre_tree.Exists(path) &&
        post->Exists(path)) {
      unit_set.insert(path);
    }
  }
  for (const std::string& unit_path : unit_set) {
    // Function line numbers refer to the preprocessed unit, so slice that.
    ks::Result<kcc::PreprocessedSource> pre_src =
        kcc::Preprocess(pre_tree, unit_path);
    ks::Result<kcc::PreprocessedSource> post_src =
        kcc::Preprocess(*post, unit_path);
    if (!pre_src.ok() || !post_src.ok()) {
      report.outcome = Outcome::kFailedOther;
      report.detail = "cannot preprocess " + unit_path;
      return analysis;
    }
    ks::Result<kcc::Unit> pre_unit =
        kcc::ParseSource(pre_src->text, unit_path);
    ks::Result<kcc::Unit> post_unit =
        kcc::ParseSource(post_src->text, unit_path);
    if (!pre_unit.ok() || !post_unit.ok()) {
      report.outcome = Outcome::kFailedOther;
      report.detail = "cannot parse " + unit_path;
      return analysis;
    }
    const std::string& pre_text = pre_src->text;
    const std::string& post_text = post_src->text;

    bool unit_has_candidates = false;
    for (size_t pi = 0; pi < post_unit->functions.size(); ++pi) {
      const kcc::FuncDecl& post_fn = post_unit->functions[pi];
      if (!post_fn.is_definition) {
        continue;
      }
      // Find the pre counterpart.
      const kcc::FuncDecl* pre_fn = nullptr;
      size_t pre_index = 0;
      for (size_t qi = 0; qi < pre_unit->functions.size(); ++qi) {
        if (pre_unit->functions[qi].name == post_fn.name &&
            pre_unit->functions[qi].is_definition) {
          pre_fn = &pre_unit->functions[qi];
          pre_index = qi;
        }
      }
      if (pre_fn == nullptr) {
        continue;  // new function: support code, not a replacement target
      }
      std::string pre_slice = FunctionSlice(pre_text, *pre_unit, pre_index);
      std::string post_slice = FunctionSlice(post_text, *post_unit, pi);
      if (pre_slice == post_slice) {
        continue;  // source unchanged (the baseline looks no deeper)
      }
      if (SignatureOf(*pre_fn) != SignatureOf(post_fn)) {
        report.outcome = Outcome::kFailedSignature;
        report.detail = std::string(post_fn.name) + ": signature changed";
        return analysis;
      }
      if (post_fn.has_static_local || pre_fn->has_static_local) {
        report.outcome = Outcome::kFailedStaticLocal;
        report.detail =
            std::string(post_fn.name) + ": function has static locals";
        return analysis;
      }
      analysis.candidates.push_back(
          Candidate{unit_path, std::string(post_fn.name)});
      report.replaced.emplace_back(post_fn.name);
      unit_has_candidates = true;
    }
    if (unit_has_candidates) {
      analysis.units.push_back(unit_path);
    }
  }
  if (analysis.candidates.empty()) {
    report.outcome = Outcome::kFailedOther;
    report.detail = "no changed function bodies found at the source level";
    return analysis;
  }

  // Ground truth from object-level differencing: everything whose object
  // code the patch changes. What the baseline does not replace, it misses.
  ks::Result<ksplice::PrePostResult> prepost =
      ksplice::RunPrePost(pre_tree, *patch, options.compile);
  if (prepost.ok()) {
    std::set<std::string> replaced(report.replaced.begin(),
                                   report.replaced.end());
    for (const ksplice::ChangedSection& change : prepost->changed) {
      if (change.kind != kelf::SectionKind::kText ||
          change.change != ksplice::SectionChange::kModified ||
          change.symbol.empty()) {
        continue;
      }
      if (replaced.count(change.symbol) == 0) {
        report.missed.push_back(change.unit + ":" + change.symbol);
      }
    }
  }

  report.outcome = Outcome::kApplied;
  return analysis;
}

}  // namespace

const char* OutcomeName(Outcome outcome) {
  return kName[static_cast<int>(outcome)];
}

ks::Result<Report> AnalyzeSourcePatch(const kdiff::SourceTree& pre_tree,
                                      std::string_view patch_text,
                                      const SourcePatchOptions& options) {
  KS_ASSIGN_OR_RETURN(Analysis analysis,
                      Analyze(pre_tree, patch_text, options));
  return analysis.report;
}

ks::Result<Report> SourceLevelApply(kvm::Machine& machine,
                                    const kdiff::SourceTree& pre_tree,
                                    std::string_view patch_text,
                                    const SourcePatchOptions& options) {
  KS_ASSIGN_OR_RETURN(Analysis analysis,
                      Analyze(pre_tree, patch_text, options));
  Report& report = analysis.report;
  if (report.outcome != Outcome::kApplied) {
    return report;
  }

  // Build the replacement module: compile each affected post unit with
  // function sections and extract the candidate (plus any new) sections.
  kcc::CompileOptions compile = options.compile;
  compile.function_sections = true;
  compile.data_sections = true;

  std::vector<kelf::ObjectFile> module_objects;
  for (const std::string& unit_path : analysis.units) {
    ks::Result<kelf::ObjectFile> post_obj =
        kcc::CompileUnit(analysis.post_tree, unit_path, compile);
    if (!post_obj.ok()) {
      report.outcome = Outcome::kFailedOther;
      report.detail = post_obj.status().message();
      return report;
    }
    // Included: candidate function sections + sections new vs pre build.
    ks::Result<kelf::ObjectFile> pre_obj =
        kcc::CompileUnit(pre_tree, unit_path, compile);
    if (!pre_obj.ok()) {
      report.outcome = Outcome::kFailedOther;
      report.detail = pre_obj.status().message();
      return report;
    }
    std::set<std::string> included;
    for (const Candidate& candidate : analysis.candidates) {
      if (candidate.unit == unit_path) {
        included.insert(".text." + candidate.symbol);
      }
    }
    for (const kelf::Section& section : post_obj->sections()) {
      if (!pre_obj->FindSection(section.name).has_value()) {
        included.insert(section.name);  // new function/data rides along
      }
    }

    kelf::ObjectFile module(unit_path);
    std::map<int, int> section_map;
    for (size_t si = 0; si < post_obj->sections().size(); ++si) {
      const kelf::Section& section = post_obj->sections()[si];
      if (included.count(section.name) == 0) {
        continue;
      }
      kelf::Section copy = section;
      copy.relocs.clear();
      section_map[static_cast<int>(si)] =
          module.AddSection(std::move(copy));
    }
    std::map<int, int> symbol_map;
    for (size_t yi = 0; yi < post_obj->symbols().size(); ++yi) {
      const kelf::Symbol& sym = post_obj->symbols()[yi];
      if (!sym.defined() || section_map.count(sym.section) == 0) {
        continue;
      }
      kelf::Symbol copy = sym;
      copy.section = section_map[sym.section];
      copy.binding = kelf::SymbolBinding::kLocal;  // avoid export clashes
      symbol_map[static_cast<int>(yi)] = module.AddSymbol(std::move(copy));
    }
    for (const auto& [post_idx, module_idx] : section_map) {
      const kelf::Section& post_sec =
          post_obj->sections()[static_cast<size_t>(post_idx)];
      kelf::Section& module_sec =
          module.sections()[static_cast<size_t>(module_idx)];
      for (const kelf::Relocation& rel : post_sec.relocs) {
        kelf::Relocation copy = rel;
        if (symbol_map.count(rel.symbol) != 0) {
          copy.symbol = symbol_map[rel.symbol];
        } else {
          // Symbol-table resolution: the baseline's only tool (§4.1).
          const kelf::Symbol& sym =
              post_obj->symbols()[static_cast<size_t>(rel.symbol)];
          copy.symbol = module.InternUndefinedSymbol(sym.name);
        }
        module_sec.relocs.push_back(copy);
      }
    }
    module_objects.push_back(std::move(module));
  }

  // Resolve imports strictly through the symbol table: a name bound more
  // than once is fatal for a source-level system.
  ks::Status ambiguity = ks::OkStatus();
  auto resolver = [&machine, &ambiguity](
                      const std::string& name) -> std::optional<uint32_t> {
    size_t hits = 0;
    uint32_t address = 0;
    machine.VisitSymbolsNamed(name, [&](const kelf::LinkedSymbol& sym) {
      address = sym.address;
      ++hits;
    });
    if (hits == 1) {
      return address;
    }
    if (hits > 1 && ambiguity.ok()) {
      ambiguity = ks::Aborted(ks::StrPrintf(
          "symbol '%s' appears %zu times in the symbol table",
          name.c_str(), hits));
    }
    return std::nullopt;
  };
  ks::Result<kvm::ModuleHandle> handle =
      machine.LoadModule(module_objects, "srcpatch-update", resolver);
  if (!handle.ok()) {
    report.outcome = !ambiguity.ok() ? Outcome::kFailedAmbiguous
                                     : Outcome::kFailedOther;
    report.detail =
        !ambiguity.ok() ? ambiguity.message() : handle.status().message();
    return report;
  }
  ks::Result<kvm::ModuleInfo> info = machine.GetModuleInfo(*handle);
  if (!info.ok()) {
    return info.status();
  }

  // Splice each candidate.
  struct Splice {
    uint32_t from;
    uint32_t size;
    uint32_t to;
  };
  std::vector<Splice> splices;
  for (const Candidate& candidate : analysis.candidates) {
    uint32_t old_addr = 0;
    uint32_t old_size = 0;
    uint32_t new_addr = 0;
    int old_count = 0;
    machine.VisitSymbolsNamed(
        candidate.symbol, [&](const kelf::LinkedSymbol& sym) {
          bool in_module = sym.address >= info->base &&
                           sym.address < info->base + info->size;
          if (in_module && sym.unit == candidate.unit) {
            new_addr = sym.address;
          } else if (!in_module && sym.kind == kelf::SymbolKind::kFunction) {
            old_addr = sym.address;
            old_size = sym.size;
            ++old_count;
          }
        });
    if (old_count != 1 || new_addr == 0 ||
        old_size < kvx::kTrampolineSize) {
      (void)machine.UnloadModule(*handle);
      report.outcome = old_count > 1 ? Outcome::kFailedAmbiguous
                                     : Outcome::kFailedOther;
      report.detail = "cannot locate unique '" + candidate.symbol + "'";
      return report;
    }
    splices.push_back(Splice{old_addr, old_size, new_addr});
  }

  ks::Status spliced = machine.StopMachine([&](kvm::Machine& m) {
    for (const kvm::ThreadInfo& thread : m.Threads()) {
      if (thread.state == kvm::ThreadState::kFaulted) {
        continue;
      }
      for (const Splice& splice : splices) {
        if (thread.pc >= splice.from && thread.pc < splice.from + splice.size) {
          return ks::FailedPrecondition("function in use");
        }
      }
    }
    for (const Splice& splice : splices) {
      KS_RETURN_IF_ERROR(m.WriteBytes(
          splice.from, kvx::EncodeTrampoline(splice.from, splice.to)));
    }
    return ks::OkStatus();
  });
  if (!spliced.ok()) {
    (void)machine.UnloadModule(*handle);
    report.outcome = Outcome::kFailedOther;
    report.detail = spliced.message();
    return report;
  }
  return report;
}

}  // namespace srcpatch
