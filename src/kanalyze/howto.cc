// Special-section howto checks (kanalyze pass 6): validates the typed
// table sections a primary object ships against the code it ships. An
// exception-table or bug-table entry is only meaningful if its words name
// instruction boundaries of the packaged text — a patch that moved or
// deleted the code a fixup pointed at would otherwise be discovered only
// when a fault dispatches through a stale entry in the running kernel.
// Rules KSA601-KSA604 (rules.h): a missing, undefined, non-text or
// out-of-range entry target; a target inside an instruction; a bug entry
// whose trap no longer decodes as one; and (a note) build timestamps that
// differ pre vs post, harmless because run-pre matches date/time sections
// content-ignoring (§4.3 applied to special sections).

#include <algorithm>
#include <map>
#include <vector>

#include "base/strings.h"
#include "kanalyze/kanalyze.h"
#include "kanalyze/rules.h"
#include "kvx/isa.h"

namespace kanalyze {

namespace {

using ksplice::LintReport;

// Instruction boundaries of a text section in ascending order, ending
// with the end-of-walk offset, and the number of instructions decoded. A
// walk that hits undecodable bytes (the cfg pass reports that as KSA201)
// just truncates the list.
std::pair<std::vector<uint32_t>, uint64_t> TextBoundaries(
    const kelf::Section& text) {
  std::vector<uint32_t> boundaries;
  kvx::WalkEnd walk = kvx::WalkInsns(
      std::span<const uint8_t>(text.bytes),
      [&](uint32_t pos, const kvx::Insn&) {
        boundaries.push_back(pos);
        return true;
      });
  uint64_t decoded = boundaries.size();
  boundaries.push_back(walk.end);
  return {std::move(boundaries), decoded};
}

// Checks one table word: the relocation at `off` must name a defined text
// symbol whose section contains addend, on an instruction boundary.
// `what` names the word in diagnostics ("faulting instruction", "fixup",
// "trap"). Returns the resolved (section, offset) when valid.
struct WordTarget {
  const kelf::Section* text = nullptr;
  uint32_t offset = 0;
  bool ok = false;
};

WordTarget CheckTableWord(
    const kelf::ObjectFile& obj, const kelf::Section& table, uint32_t off,
    const char* what,
    std::map<const kelf::Section*, std::vector<uint32_t>>& boundary_cache,
    LintReport* report) {
  WordTarget target;
  const kelf::Relocation* rel = nullptr;
  for (const kelf::Relocation& r : table.relocs) {
    if (r.offset == off) {
      rel = &r;
      break;
    }
  }
  const char* hint =
      "rebuild the package: table entries must be regenerated with the "
      "code they describe, never patched independently";
  if (rel == nullptr) {
    AddFinding(report, "KSA601", obj.source_name(), table.name,
               ks::StrPrintf("entry %u: %s word carries no relocation — "
                             "the target cannot move with the code",
                             off / kelf::kHowtoEntrySize, what),
               hint, off);
    return target;
  }
  const kelf::Symbol& sym = obj.symbols()[static_cast<size_t>(rel->symbol)];
  if (!sym.defined()) {
    AddFinding(report, "KSA601", obj.source_name(), table.name,
               ks::StrPrintf("entry %u: %s word references '%s', which "
                             "this object does not define",
                             off / kelf::kHowtoEntrySize, what,
                             sym.name.c_str()),
               hint, off);
    return target;
  }
  const kelf::Section& text =
      obj.sections()[static_cast<size_t>(sym.section)];
  uint32_t resolved = sym.value + static_cast<uint32_t>(rel->addend);
  if (text.kind != kelf::SectionKind::kText ||
      resolved >= text.bytes.size()) {
    AddFinding(report, "KSA601", obj.source_name(), table.name,
               ks::StrPrintf("entry %u: %s target '%s'+%u is outside the "
                             "function's code (%zu bytes)",
                             off / kelf::kHowtoEntrySize, what,
                             sym.name.c_str(),
                             static_cast<uint32_t>(rel->addend),
                             text.bytes.size()),
               hint, off);
    return target;
  }
  auto cached = boundary_cache.find(&text);
  if (cached == boundary_cache.end()) {
    auto [boundaries, decoded] = TextBoundaries(text);
    report->insns_decoded += decoded;
    cached = boundary_cache.emplace(&text, std::move(boundaries)).first;
  }
  if (!std::binary_search(cached->second.begin(), cached->second.end(),
                          resolved)) {
    AddFinding(report, "KSA602", obj.source_name(), table.name,
               ks::StrPrintf("entry %u: %s target '%s'+%u does not start "
                             "an instruction — the patch rewrote the code "
                             "this entry described",
                             off / kelf::kHowtoEntrySize, what,
                             sym.name.c_str(), resolved),
               hint, off);
    return target;
  }
  target.text = &text;
  target.offset = resolved;
  target.ok = true;
  return target;
}

}  // namespace

void RunHowtoPass(const ksplice::UpdatePackage& package, LintReport* report) {
  for (const kelf::ObjectFile& primary : package.primary_objects) {
    std::map<const kelf::Section*, std::vector<uint32_t>> boundary_cache;
    for (const kelf::Section& section : primary.sections()) {
      if (section.howto != kelf::Howto::kExtable &&
          section.howto != kelf::Howto::kBug) {
        continue;
      }
      const bool extable = section.howto == kelf::Howto::kExtable;
      uint32_t size = static_cast<uint32_t>(section.bytes.size());
      for (uint32_t off = 0; off + kelf::kHowtoEntrySize <= size;
           off += kelf::kHowtoEntrySize) {
        if (extable) {
          CheckTableWord(primary, section, off, "faulting instruction",
                         boundary_cache, report);
          CheckTableWord(primary, section, off + 4, "fixup",
                         boundary_cache, report);
          continue;
        }
        WordTarget trap = CheckTableWord(primary, section, off, "trap",
                                         boundary_cache, report);
        if (!trap.ok) {
          continue;
        }
        ks::Result<kvx::Insn> insn = kvx::Decode(
            std::span<const uint8_t>(trap.text->bytes).subspan(trap.offset));
        if (!insn.ok() || insn->op != kvx::Op::kBug) {
          AddFinding(report, "KSA603", primary.source_name(), section.name,
                     ks::StrPrintf("entry %u: trap address no longer decodes "
                                   "to a bug trap (found %s)",
                                   off / kelf::kHowtoEntrySize,
                                   insn.ok() ? kvx::FormatInsn(*insn).c_str()
                                             : "undecodable bytes"),
                     "rebuild the package: the BUG() site moved or was "
                     "removed",
                     off);
        }
      }
    }

    // KSA604: pre-vs-post build timestamps. Only fires when a primary
    // carries a date/time section at all (a patch that touched it
    // directly); matching is content-ignoring, so this is informational.
    const kelf::ObjectFile* helper =
        HelperForUnit(package, primary.source_name());
    if (helper == nullptr) {
      continue;
    }
    for (const kelf::Section& post : primary.sections()) {
      if (post.howto != kelf::Howto::kDate &&
          post.howto != kelf::Howto::kTime) {
        continue;
      }
      const kelf::Section* pre = helper->SectionByName(post.name);
      if (pre != nullptr && pre->bytes != post.bytes) {
        AddFinding(report, "KSA604", primary.source_name(), post.name,
                   "build timestamp differs between pre and post objects",
                   "harmless: date/time sections match content-ignoring at "
                   "apply time",
                   0);
      }
    }
  }
}

}  // namespace kanalyze
