#include "corpus/corpus.h"

#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "base/json.h"
#include "base/strings.h"
#include "base/threadpool.h"
#include "corpus/tree_parts.h"
#include "kcc/codegen.h"
#include "kcc/parser.h"
#include "ksplice/core.h"
#include "ksplice/create.h"

namespace corpus {

const kdiff::SourceTree& KernelSource() {
  static const kdiff::SourceTree kTree = [] {
    kdiff::SourceTree tree;
    AddCoreTree(tree);
    AddFsTree(tree);
    AddNetTree(tree);
    AddDrvTree(tree);
    AddMmIpcTree(tree);
    AddArchTree(tree);
    AddHarnessTree(tree);
    return tree;
  }();
  return kTree;
}

kcc::CompileOptions RunBuildOptions() {
  kcc::CompileOptions options;
  // Distribution kernels ship monolithic text (§6.3) with a fairly eager
  // inliner, which is what makes the paper's 20-of-64 statistic bite.
  options.function_sections = false;
  options.data_sections = false;
  options.inline_threshold = 40;
  return options;
}

namespace {

// Applies one vulnerability's edits to a copy of the kernel tree.
ks::Result<kdiff::SourceTree> ApplyEdits(const std::vector<Edit>& edits) {
  kdiff::SourceTree post = KernelSource();
  for (const Edit& edit : edits) {
    ks::Result<std::string> contents = post.Read(edit.path);
    if (!contents.ok()) {
      return ks::Status(contents.status()).WithContext("corpus edit");
    }
    size_t at = contents->find(edit.from);
    if (at == std::string::npos) {
      return ks::NotFound(ks::StrPrintf(
          "corpus edit: '%.40s...' not found in %s", edit.from.c_str(),
          edit.path.c_str()));
    }
    std::string updated = *contents;
    updated.replace(at, edit.from.size(), edit.to);
    post.Write(edit.path, updated);
  }
  return post;
}

}  // namespace

ks::Result<std::string> PatchFor(const Vulnerability& vuln) {
  KS_ASSIGN_OR_RETURN(kdiff::SourceTree post, ApplyEdits(vuln.edits));
  std::string diff = kdiff::MakeUnifiedDiff(KernelSource(), post);
  if (diff.empty()) {
    return ks::Internal("corpus: empty patch for " + vuln.cve);
  }
  return diff;
}

ks::Result<std::string> AmendedPatchFor(const Vulnerability& vuln) {
  if (!vuln.needs_custom_code) {
    return PatchFor(vuln);
  }
  KS_ASSIGN_OR_RETURN(kdiff::SourceTree post, ApplyEdits(vuln.custom_edits));
  std::string diff = kdiff::MakeUnifiedDiff(KernelSource(), post);
  if (diff.empty()) {
    return ks::Internal("corpus: empty amended patch for " + vuln.cve);
  }
  return diff;
}

ks::Result<std::unique_ptr<kvm::Machine>> BootKernel() {
  // Release 0 is the pristine tree.
  return BootKernelVersion(0);
}

const std::vector<KernelVersion>& KernelVersions() {
  static const std::vector<KernelVersion>* kVersions =
      new std::vector<KernelVersion>{
          {"v2.6.1", "", "", ""},
          {"v2.6.2", "kernel/sched.kc", "sched_stats[0] += 1;",
           "sched_stats[0] += 2;"},
          {"v2.6.3", "net/ipv4.kc", "return daddr % 4;",
           "return daddr % 8;"},
          {"v2.6.4", "kernel/sys_prctl.kc", "dumpable[tid() % 64] = arg;",
           "dumpable[tid() % 63] = arg;"},
          {"v2.6.5", "drv/dvb/dst_ca.kc", "record(950, slot);",
           "record(951, slot);"},
      };
  return *kVersions;
}

ks::Result<kdiff::SourceTree> KernelSourceAt(size_t index) {
  const std::vector<KernelVersion>& versions = KernelVersions();
  if (index >= versions.size()) {
    return ks::InvalidArgument(
        ks::StrPrintf("corpus: no kernel release %zu (have %zu)", index,
                      versions.size()));
  }
  const KernelVersion& version = versions[index];
  kdiff::SourceTree tree = KernelSource();
  if (version.dev_path.empty()) {
    return tree;
  }
  KS_ASSIGN_OR_RETURN(std::string contents, tree.Read(version.dev_path));
  size_t at = contents.find(version.dev_from);
  if (at == std::string::npos) {
    return ks::NotFound("corpus: dev edit anchor missing in " +
                        version.dev_path);
  }
  contents.replace(at, version.dev_from.size(), version.dev_to);
  tree.Write(version.dev_path, contents);
  return tree;
}

namespace {

// One release's kernel, compiled and linked once per process: every boot
// of the release, on any number of nodes, copies this one immutable image
// into its own machine and shares its symbol table, which owns the link's
// symbols (image.symbols is left empty).
struct Release {
  kelf::LinkedImage image;
  std::shared_ptr<const kvm::SymbolTable> symbols;
};

ks::Result<std::shared_ptr<const Release>> VersionImage(size_t index) {
  static std::mutex mu;
  static auto* linked =
      new std::map<size_t, std::shared_ptr<const Release>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = linked->find(index);
  if (it == linked->end()) {
    KS_ASSIGN_OR_RETURN(kdiff::SourceTree tree, KernelSourceAt(index));
    kcc::CompileOptions options = RunBuildOptions();
    options.cache = &SharedObjectCache();
    KS_ASSIGN_OR_RETURN(std::vector<kelf::ObjectFile> objects,
                        kcc::BuildTree(tree, options));
    ks::Result<kelf::LinkedImage> image =
        kelf::Link(objects, kvm::MachineConfig().kernel_base);
    if (!image.ok()) {
      return ks::Status(image.status()).WithContext("linking kernel");
    }
    auto release = std::make_shared<Release>();
    release->image = std::move(image).value();
    release->symbols = std::make_shared<const kvm::SymbolTable>(
        std::move(release->image.symbols));
    release->image.symbols.clear();
    it = linked->emplace(index, std::move(release)).first;
  }
  return it->second;
}

}  // namespace

ks::Result<std::unique_ptr<kvm::Machine>> BootKernelVersion(
    size_t index, uint32_t memory_bytes) {
  if (!KernelVersions().empty()) {
    index %= KernelVersions().size();
  }
  KS_ASSIGN_OR_RETURN(std::shared_ptr<const Release> release,
                      VersionImage(index));
  kvm::MachineConfig config;
  config.memory_bytes = memory_bytes == 0 ? 24u << 20 : memory_bytes;
  KS_ASSIGN_OR_RETURN(
      std::unique_ptr<kvm::Machine> machine,
      kvm::Machine::Boot(release->image, release->symbols, config));
  // kernel_init is a boot-time call, not a thread: the machine comes up
  // with no thread spawned, so the first thread a caller spawns is tid 1.
  KS_ASSIGN_OR_RETURN(uint32_t init, machine->GlobalSymbol("kernel_init"));
  ks::Result<uint32_t> ran = machine->CallFunction(init, 0);
  if (!ran.ok()) {
    return ks::Internal("corpus: kernel_init: " + ran.status().message());
  }
  return machine;
}

ks::Result<bool> RunExploit(kvm::Machine& machine,
                            const Vulnerability& vuln) {
  size_t before = machine.RecordsWithKey(kKeyEscalated).size();
  KS_ASSIGN_OR_RETURN(int tid, machine.SpawnNamed(vuln.exploit_entry, 0));
  (void)tid;
  KS_RETURN_IF_ERROR(machine.RunToCompletion());
  std::vector<uint32_t> outcomes = machine.RecordsWithKey(kKeyEscalated);
  if (outcomes.size() != before + 1) {
    return ks::Internal(ks::StrPrintf(
        "exploit %s recorded %zu outcomes (faults: %zu)",
        vuln.exploit_entry.c_str(), outcomes.size() - before,
        machine.Faults().size()));
  }
  return outcomes.back() == 1;
}

ks::Status RunStress(kvm::Machine& machine, int rounds) {
  size_t faults_before = machine.Faults().size();
  size_t done_before = machine.RecordsWithKey(kKeyStress).size();
  KS_RETURN_IF_ERROR(machine.SpawnNamed("stress_main", rounds).status());
  KS_RETURN_IF_ERROR(machine.SpawnNamed("stress_worker", rounds).status());
  KS_RETURN_IF_ERROR(machine.RunToCompletion());
  if (machine.Faults().size() != faults_before) {
    return ks::Aborted("stress workload faulted: " +
                       machine.Faults().back());
  }
  if (machine.RecordsWithKey(kKeyStress).size() != done_before + 2) {
    return ks::Aborted("stress workload did not complete");
  }
  if (machine.Halted()) {
    return ks::Aborted("kernel panicked under stress");
  }
  return ks::OkStatus();
}

ks::Result<EvalOutcome> Evaluate(const Vulnerability& vuln,
                                 const EvalOptions& options) {
  EvalOutcome outcome;
  outcome.cve = vuln.cve;
  outcome.declared_inline = vuln.declared_inline;
  outcome.touches_assembly = vuln.touches_assembly;

  KS_ASSIGN_OR_RETURN(std::unique_ptr<kvm::Machine> machine, BootKernel());
  ksplice::KspliceCore core(machine.get());

  // Criterion 3a: the exploit works on the unpatched kernel.
  KS_ASSIGN_OR_RETURN(outcome.exploit_before, RunExploit(*machine, vuln));

  // Build the update from the original fix; fall back to the revised
  // patch with custom code when the original changes data semantics
  // (either detected at create time, or — for init-function changes — by
  // the exploit still succeeding, which is the "programmer check" of §2
  // made empirical).
  KS_ASSIGN_OR_RETURN(std::string patch, PatchFor(vuln));
  outcome.patch_lines = [] (const std::string& text) {
    ks::Result<kdiff::Patch> parsed = kdiff::ParseUnifiedDiff(text);
    return parsed.ok() ? parsed->ChangedLines() : 0;
  }(patch);

  ksplice::CreateOptions create_options;
  create_options.compile = RunBuildOptions();
  create_options.compile.cache = &SharedObjectCache();
  create_options.id = vuln.cve;

  auto try_apply = [&](const std::string& patch_text)
      -> ks::Result<bool> {  // true if applied
    ks::Result<ksplice::CreateResult> created = ksplice::CreateUpdate(
        KernelSource(), patch_text, create_options);
    if (!created.ok()) {
      if (created.status().code() == ks::ErrorCode::kFailedPrecondition) {
        return false;  // data-semantics gate
      }
      return created.status();
    }
    outcome.targets = static_cast<int>(created->package.targets.size());
    outcome.create_report = created->report;
    ks::Result<ksplice::ApplyReport> applied = core.Apply(created->package);
    if (!applied.ok()) {
      return ks::Status(applied.status());
    }
    outcome.apply_report = std::move(applied).value();
    return true;
  };

  KS_ASSIGN_OR_RETURN(bool applied, try_apply(patch));
  if (applied) {
    outcome.create_ok = true;
    outcome.apply_ok = true;
    KS_ASSIGN_OR_RETURN(outcome.exploit_after, RunExploit(*machine, vuln));
  }
  if ((!applied || outcome.exploit_after) && vuln.needs_custom_code) {
    // Table-1 path: undo the ineffective update if one is applied, then
    // use the revised patch with ksplice hooks.
    if (applied) {
      KS_RETURN_IF_ERROR(core.Undo(vuln.cve).status());
    }
    outcome.needed_custom_code = true;
    outcome.custom_code_lines = vuln.custom_code_lines;
    create_options.id = vuln.cve + "-custom";
    KS_ASSIGN_OR_RETURN(std::string amended, AmendedPatchFor(vuln));
    KS_ASSIGN_OR_RETURN(bool amended_applied, try_apply(amended));
    if (!amended_applied) {
      return ks::Internal("corpus: amended patch rejected for " + vuln.cve);
    }
    outcome.create_ok = true;
    outcome.apply_ok = true;
    KS_ASSIGN_OR_RETURN(outcome.exploit_after, RunExploit(*machine, vuln));
  }

  if (options.run_stress && outcome.apply_ok) {
    ks::Status stress = RunStress(*machine, options.stress_rounds);
    outcome.stress_ok = stress.ok();
  } else if (!options.run_stress) {
    outcome.stress_ok = true;
  }

  // §6.3 statistics: did the patch modify a function that the run build
  // inlined somewhere? Does a modified function reference an ambiguous
  // symbol? Modified functions are found by intersecting hunk line ranges
  // with function extents in the raw unit source.
  {
    ks::Result<kdiff::Patch> parsed = kdiff::ParseUnifiedDiff(patch);
    if (parsed.ok()) {
      // A name is ambiguous when the pristine kernel binds it more than
      // once: the machine booted release 0, whose table this is.
      const kvm::SymbolTable& kernel = *machine->kernel_symbols();
      auto ambiguous = [&kernel](const std::string& name) {
        return kernel.Named(name, kvm::SymbolTable::Hash(name)).size() > 1;
      };
      for (const kdiff::FilePatch& file : parsed->files) {
        if (!ks::EndsWith(file.path, ".kc")) {
          continue;
        }
        // Parse the raw unit with #include lines blanked so declaration
        // line numbers match the diff's.
        ks::Result<std::string> raw = KernelSource().Read(file.path);
        if (!raw.ok()) {
          continue;
        }
        std::string blanked;
        for (const std::string& line : ks::SplitLines(*raw)) {
          std::string_view trimmed = ks::Trim(line);
          blanked += ks::StartsWith(trimmed, "#") ? "" : line;
          blanked += '\n';
        }
        ks::Result<kcc::Unit> unit = kcc::ParseSource(blanked, file.path);
        if (!unit.ok()) {
          continue;
        }
        // Function extents: [line, next top-level decl line).
        struct Extent {
          std::string name;
          int begin = 0;
          int end = 0;
        };
        std::vector<Extent> extents;
        for (const kcc::FuncDecl& fn : unit->functions) {
          if (!fn.is_definition) {
            continue;
          }
          int fn_end = INT32_MAX;
          auto consider = [&](int line) {
            if (line > fn.line && line < fn_end) {
              fn_end = line;
            }
          };
          for (const kcc::FuncDecl& other : unit->functions) {
            consider(other.line);
          }
          for (const kcc::GlobalDecl& global : unit->globals) {
            consider(global.line);
          }
          extents.push_back(Extent{std::string(fn.name), fn.line, fn_end});
        }
        std::set<std::string> changed;
        for (const kdiff::Hunk& hunk : file.hunks) {
          // Narrow to the actually-changed pre lines within the hunk.
          int line = hunk.a_start;
          for (const std::string& hline : hunk.lines) {
            bool is_change = hline[0] == '-' || hline[0] == '+';
            if (is_change) {
              for (const Extent& extent : extents) {
                if (line >= extent.begin && line < extent.end) {
                  changed.insert(extent.name);
                }
              }
            }
            if (hline[0] != '+') {
              ++line;
            }
          }
        }
        ks::Result<kcc::Unit> full_unit =
            kcc::ParseUnit(KernelSource(), file.path);
        ks::Result<std::vector<std::string>> inlined =
            full_unit.ok() ? kcc::InlinedFunctions(*full_unit,
                                                   RunBuildOptions())
                           : ks::Result<std::vector<std::string>>(
                                 full_unit.status());
        kcc::CompileOptions sec_options = RunBuildOptions();
        sec_options.function_sections = true;
        sec_options.data_sections = true;
        sec_options.cache = &SharedObjectCache();
        ks::Result<kelf::ObjectFile> obj =
            kcc::CompileUnit(KernelSource(), file.path, sec_options);
        for (const std::string& name : changed) {
          if (inlined.ok() &&
              std::find(inlined->begin(), inlined->end(), name) !=
                  inlined->end()) {
            outcome.modified_inlined_function = true;
          }
          if (obj.ok()) {
            const kelf::Section* section =
                obj->SectionByName(".text." + name);
            if (section != nullptr) {
              for (const kelf::Relocation& rel : section->relocs) {
                const std::string& ref =
                    obj->symbols()[static_cast<size_t>(rel.symbol)].name;
                if (ambiguous(ref)) {
                  outcome.references_ambiguous_symbol = true;
                }
              }
            }
          }
        }
      }
    }
  }

  if (options.run_undo_check && outcome.apply_ok) {
    std::string id = outcome.needed_custom_code ? vuln.cve + "-custom"
                                                : vuln.cve;
    ks::Result<ksplice::UndoReport> undone = core.Undo(id);
    outcome.undo_ok = undone.ok();
    if (undone.ok()) {
      outcome.undo_report = std::move(undone).value();
    }
  }

  return outcome;
}

std::string EvalOutcome::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("cve", cve)
      .Field("patch_lines", patch_lines)
      .Field("needed_custom_code", needed_custom_code)
      .Field("custom_code_lines", custom_code_lines)
      .Field("create_ok", create_ok)
      .Field("apply_ok", apply_ok)
      .Field("stress_ok", stress_ok)
      .Field("exploit_before", exploit_before)
      .Field("exploit_after", exploit_after)
      .Field("undo_ok", undo_ok)
      .Field("targets", targets)
      .Field("modified_inlined_function", modified_inlined_function)
      .Field("declared_inline", declared_inline)
      .Field("references_ambiguous_symbol", references_ambiguous_symbol)
      .Field("touches_assembly", touches_assembly)
      .Field("success", Success())
      .Field("create", create_report)
      .Field("apply", apply_report)
      .Field("undo", undo_report)
      .EndObject().Take();
}

kcc::ObjectCache& SharedObjectCache() {
  static kcc::ObjectCache* cache = new kcc::ObjectCache();
  return *cache;
}

std::vector<ks::Result<EvalOutcome>> EvaluateAll(
    const std::vector<Vulnerability>& vulns, const SweepOptions& options) {
  // Force the shared kernel build and link before fanning out so workers
  // don't all serialize on them for their first boot.
  (void)VersionImage(0);
  std::vector<std::optional<ks::Result<EvalOutcome>>> slots(vulns.size());
  ks::ParallelFor(options.jobs, vulns.size(), [&](size_t i) {
    slots[i] = Evaluate(vulns[i], options.eval);
  });
  std::vector<ks::Result<EvalOutcome>> out;
  out.reserve(vulns.size());
  for (std::optional<ks::Result<EvalOutcome>>& slot : slots) {
    out.push_back(std::move(*slot));
  }
  return out;
}

ks::Result<SymbolCensus> CensusKernelSymbols() {
  SymbolCensus census;
  std::map<std::string, int> counts;
  std::map<std::string, std::set<std::string>> units_of;
  std::set<std::string> units;
  // The pristine kernel's link table holds every symbol its units define.
  KS_ASSIGN_OR_RETURN(std::shared_ptr<const Release> release,
                      VersionImage(0));
  for (const kelf::LinkedSymbol& sym : release->symbols->symbols()) {
    ++census.total_symbols;
    counts[sym.name]++;
    units_of[sym.name].insert(sym.unit);
    units.insert(sym.unit);
  }
  std::set<std::string> ambiguous_units;
  for (const auto& [name, count] : counts) {
    if (count > 1) {
      census.ambiguous_symbols += count;
      for (const std::string& unit : units_of[name]) {
        ambiguous_units.insert(unit);
      }
    }
  }
  census.total_units = static_cast<int>(units.size());
  census.units_with_ambiguous = static_cast<int>(ambiguous_units.size());
  return census;
}

}  // namespace corpus
