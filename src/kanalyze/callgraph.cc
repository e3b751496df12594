#include "kanalyze/callgraph.h"

#include <algorithm>
#include <deque>
#include <set>
#include <span>

#include "kvx/isa.h"

namespace kanalyze {

namespace {

struct SectionScan {
  bool self_call = false;
  uint64_t insns = 0;
};

// Decodes a text section looking for reloc-free CALLs (self-recursion
// under -ffunction-sections). Stops at the first undecodable byte — the
// CFG pass owns that diagnostic. Blocking facts (sleep/lock_kernel) are
// the side-effect summaries' job (summary.h), not the graph's.
SectionScan ScanText(const kelf::Section& section) {
  SectionScan scan;
  std::vector<uint32_t> reloc_fields;
  reloc_fields.reserve(section.relocs.size());
  for (const kelf::Relocation& rel : section.relocs) {
    reloc_fields.push_back(rel.offset);
  }
  std::sort(reloc_fields.begin(), reloc_fields.end());
  kvx::WalkInsns(std::span<const uint8_t>(section.bytes),
                 [&](uint32_t off, const kvx::Insn& insn) {
                   ++scan.insns;
                   if (insn.op == kvx::Op::kCall) {
                     int field = kvx::Imm32FieldOffset(insn.op);
                     if (field >= 0 &&
                         !std::binary_search(
                             reloc_fields.begin(), reloc_fields.end(),
                             off + static_cast<uint32_t>(field))) {
                       scan.self_call = true;
                     }
                   }
                   return true;
                 });
  return scan;
}

}  // namespace

int CallGraph::FindHelperNode(const std::string& unit,
                              const std::string& symbol) const {
  auto it = helper_by_scoped_.find(ksplice::ScopedName(unit, symbol));
  return it == helper_by_scoped_.end() ? -1 : it->second;
}

int CallGraph::FindPrimaryNode(const std::string& unit,
                               const std::string& symbol) const {
  auto it = primary_by_scoped_.find(ksplice::ScopedName(unit, symbol));
  return it == primary_by_scoped_.end() ? -1 : it->second;
}

bool CallGraph::OnCycle(int node) const {
  if (node < 0 || node >= static_cast<int>(nodes.size())) {
    return false;
  }
  // BFS from the node's callees back to the node.
  std::deque<int> queue(callees[static_cast<size_t>(node)].begin(),
                        callees[static_cast<size_t>(node)].end());
  std::set<int> seen;
  while (!queue.empty()) {
    int at = queue.front();
    queue.pop_front();
    if (at == node) {
      return true;
    }
    if (!seen.insert(at).second) {
      continue;
    }
    for (int next : callees[static_cast<size_t>(at)]) {
      queue.push_back(next);
    }
  }
  return false;
}

CallGraph BuildCallGraph(const ksplice::UpdatePackage& package) {
  CallGraph graph;

  // ---- Nodes: every text section of every object, helpers then
  // primaries. Sections without a defining symbol (hand-built packages,
  // monolithic builds) become anonymous nodes keyed by section name.
  struct ObjRef {
    const kelf::ObjectFile* obj;
    bool in_primary;
    int object_index;
  };
  std::vector<ObjRef> objects;
  for (size_t i = 0; i < package.helper_objects.size(); ++i) {
    objects.push_back({&package.helper_objects[i], false,
                       static_cast<int>(i)});
  }
  for (size_t i = 0; i < package.primary_objects.size(); ++i) {
    objects.push_back({&package.primary_objects[i], true,
                       static_cast<int>(i)});
  }

  // (object position in `objects`, section index) -> node index.
  std::map<std::pair<int, int>, int> node_of_section;
  // Global function name -> node, helpers and primaries kept apart
  // (apply-time resolution prefers package-internal definitions).
  std::map<std::string, int> helper_globals;
  std::map<std::string, int> primary_globals;
  // Every defined symbol per helper unit, text AND data: apply-time
  // scoped-import resolution goes through run-pre symbol_values, which
  // cover the whole helper symbol table, so a data reference like
  // `unit::some_static` is perfectly resolvable even though it never
  // becomes a call-graph node.
  std::map<std::string, std::set<std::string>> helper_defined;

  for (size_t i = 0; i < package.helper_objects.size(); ++i) {
    const kelf::ObjectFile& obj = package.helper_objects[i];
    std::set<std::string>& defined = helper_defined[obj.source_name()];
    for (const kelf::Symbol& sym : obj.symbols()) {
      if (sym.defined() && !sym.name.empty()) {
        defined.insert(sym.name);
      }
    }
  }

  for (size_t oi = 0; oi < objects.size(); ++oi) {
    const ObjRef& ref = objects[oi];
    for (size_t si = 0; si < ref.obj->sections().size(); ++si) {
      const kelf::Section& section = ref.obj->sections()[si];
      if (section.kind != kelf::SectionKind::kText ||
          section.bytes.empty()) {
        continue;
      }
      CallNode node;
      node.unit = ref.obj->source_name();
      node.section = section.name;
      node.in_primary = ref.in_primary;
      node.object_index = ref.object_index;
      node.section_index = static_cast<int>(si);
      node.text_bytes = static_cast<uint32_t>(section.bytes.size());
      std::optional<int> def =
          ref.obj->DefiningSymbolForSection(static_cast<int>(si));
      kelf::SymbolBinding binding = kelf::SymbolBinding::kLocal;
      if (def.has_value()) {
        const kelf::Symbol& sym =
            ref.obj->symbols()[static_cast<size_t>(*def)];
        node.symbol = sym.name;
        binding = sym.binding;
      }
      int index = static_cast<int>(graph.nodes.size());
      node_of_section[{static_cast<int>(oi), static_cast<int>(si)}] = index;
      if (!node.symbol.empty()) {
        auto& scoped = ref.in_primary ? graph.primary_by_scoped_
                                      : graph.helper_by_scoped_;
        scoped.emplace(ksplice::ScopedName(node.unit, node.symbol), index);
        if (binding == kelf::SymbolBinding::kGlobal) {
          auto& globals = ref.in_primary ? primary_globals : helper_globals;
          globals.emplace(node.symbol, index);
        }
      }
      graph.nodes.push_back(std::move(node));
    }
  }
  graph.callees.assign(graph.nodes.size(), {});
  graph.callers.assign(graph.nodes.size(), {});

  // ---- Edges from relocations in text sections.
  auto add_edge = [&](int from, int to) {
    auto& out = graph.callees[static_cast<size_t>(from)];
    if (std::find(out.begin(), out.end(), to) != out.end()) {
      return;
    }
    out.push_back(to);
    graph.callers[static_cast<size_t>(to)].push_back(from);
    ++graph.edges;
  };

  for (size_t oi = 0; oi < objects.size(); ++oi) {
    const ObjRef& ref = objects[oi];
    for (size_t si = 0; si < ref.obj->sections().size(); ++si) {
      auto from_it = node_of_section.find(
          {static_cast<int>(oi), static_cast<int>(si)});
      if (from_it == node_of_section.end()) {
        continue;
      }
      int from = from_it->second;
      const kelf::Section& section = ref.obj->sections()[si];
      for (const kelf::Relocation& rel : section.relocs) {
        if (rel.symbol < 0 ||
            rel.symbol >= static_cast<int>(ref.obj->symbols().size())) {
          continue;  // ObjectFile::Validate rejects this; stay defensive
        }
        const kelf::Symbol& sym =
            ref.obj->symbols()[static_cast<size_t>(rel.symbol)];
        int to = -1;
        if (sym.defined()) {
          // Intra-object reference.
          auto to_it = node_of_section.find(
              {static_cast<int>(oi), sym.section});
          if (to_it != node_of_section.end()) {
            to = to_it->second;
          }
        } else {
          if (sym.name.find(ksplice::kScopeSeparator) != std::string::npos) {
            // Scoped import: must resolve through that unit's helper.
            // Text targets become edges; data targets (statics, tables)
            // are fine as long as the helper defines the symbol at all.
            ksplice::ScopedSymbol import = ksplice::SplitScopedName(sym.name);
            to = graph.FindHelperNode(import.unit, import.symbol);
            if (to < 0 && ref.in_primary) {
              auto unit_it = helper_defined.find(import.unit);
              if (unit_it == helper_defined.end() ||
                  unit_it->second.count(import.symbol) == 0) {
                graph.dangling.push_back(DanglingImport{
                    ref.obj->source_name(),
                    graph.nodes[static_cast<size_t>(from)].symbol,
                    sym.name});
              }
            }
          } else {
            // Plain import: package-internal new globals shadow nothing;
            // then pre-kernel globals; else assume an export of an
            // un-rebuilt unit (invisible to the package).
            auto hit = primary_globals.find(sym.name);
            if (hit == primary_globals.end()) {
              hit = helper_globals.find(sym.name);
              if (hit != helper_globals.end()) {
                to = hit->second;
              }
            } else {
              to = hit->second;
            }
          }
        }
        if (to >= 0) {
          add_edge(from, to);
        }
      }
    }
  }

  // ---- Decode-level facts: self-recursion.
  for (size_t ni = 0; ni < graph.nodes.size(); ++ni) {
    CallNode& node = graph.nodes[ni];
    const ObjRef* ref = nullptr;
    for (const ObjRef& candidate : objects) {
      if (candidate.in_primary == node.in_primary &&
          candidate.object_index == node.object_index) {
        ref = &candidate;
        break;
      }
    }
    const kelf::Section& section =
        ref->obj->sections()[static_cast<size_t>(node.section_index)];
    SectionScan scan = ScanText(section);
    graph.insns_decoded += scan.insns;
    if (scan.self_call) {
      add_edge(static_cast<int>(ni), static_cast<int>(ni));
    }
  }

  return graph;
}

}  // namespace kanalyze
