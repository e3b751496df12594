#include "ksplice/runpre.h"

#include <algorithm>
#include <cassert>

#include "base/endian.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "base/trace.h"
#include "ksplice/quarantine.h"
#include "kvx/isa.h"

namespace ksplice {

uint64_t NormalizeBranchTarget(std::span<const uint8_t> window,
                               uint64_t window_base, uint64_t target) {
  if (target < window_base || target >= window_base + window.size()) {
    return target;
  }
  uint64_t pos = target - window_base;
  while (pos < window.size()) {
    ks::Result<kvx::Insn> insn = kvx::Decode(window.subspan(pos));
    if (!insn.ok() || !kvx::GetOpInfo(insn->op).is_nop) {
      break;
    }
    pos += insn->len;
  }
  return window_base + pos;
}

namespace {

// ------------------------------------------------------------------
// Decoded code.

// One non-nop instruction of a decoded code blob (pos is the offset from
// the section start or the run anchor).
using CodeRec = PlannedSection::Rec;

// Decodes `section`'s text into its records and boundary map.
void DecodePre(PlannedSection& section) {
  kvx::WalkEnd walk = kvx::WalkInsns(
      std::span<const uint8_t>(section.section->bytes),
      [&](uint32_t pos, const kvx::Insn& insn) {
        section.boundary.emplace_back(pos, section.recs.size());
        if (!kvx::GetOpInfo(insn.op).is_nop) {
          section.recs.push_back(CodeRec{pos, insn});
        }
        return true;
      });
  section.decode_error = !walk.decode_ok;
  section.end = walk.end;
  // The walk visits ascending offsets, each short of `end`.
  section.boundary.emplace_back(section.end, section.recs.size());
}

// Plans the byte path of a decoded text section: comparable unless it
// failed to decode or a branch without a relocation at its field targets
// anything but a record start. A relocation elsewhere is not in `fields`,
// so its bytes are compared like any others: the walk never reads it.
void PlanBytePath(PlannedSection& section) {
  bool comparable = !section.decode_error;
  for (const CodeRec& rec : section.recs) {
    section.code_nops += rec.pos - section.code_end;
    section.code_end = rec.pos + rec.insn.len;
    int field = kvx::Imm32FieldOffset(rec.insn.op);
    uint32_t at = rec.pos + static_cast<uint32_t>(field);
    auto it = field >= 0 ? section.reloc_at.find(at) : section.reloc_at.end();
    if (it != section.reloc_at.end()) {
      section.fields.push_back({at, rec.pos, section.code_end,
                                section.code_nops, it->second});
    } else if (kvx::IsPcRelative(rec.insn.op)) {
      uint32_t target =
          section.code_end + static_cast<uint32_t>(rec.insn.rel);
      auto hit = std::lower_bound(
          section.recs.begin(), section.recs.end(), target,
          [](const CodeRec& other, uint32_t pos) { return other.pos < pos; });
      comparable =
          comparable && hit != section.recs.end() && hit->pos == target;
    }
  }
  section.byte_comparable = comparable;
}

// Run code at one candidate address, read in place from the anchor to the
// end of memory while MatchUnit holds its view, and decoded into non-nop
// records on demand. One stream per candidate address is shared by every
// section and fixpoint pass of a MatchUnit.
class RunStream {
 public:
  RunStream(const kvm::Machine::MemoryView& memory, uint32_t start,
            uint64_t mem_end) {
    if (start >= mem_end) {
      state_ = Pull::kOutOfRange;
    } else if (ks::Result<std::span<const uint8_t>> code = memory.From(start);
               code.ok()) {
      code_ = *code;
    } else {
      state_ = Pull::kUnreadable;
    }
  }

  enum class Pull {
    kRec,         // *rec filled
    kEndOfCode,   // decode hit the end of memory
    kBadDecode,   // undecodable (or truncated-at-memory-end) bytes
    kOutOfRange,  // the anchor itself is past the end of memory
    kUnreadable,  // the machine refused to read at the anchor
  };

  // Ensures record `k` is decoded. On kRec fills *rec.
  Pull GetRec(size_t k, CodeRec* rec) {
    while (recs_.size() <= k && state_ == Pull::kRec) {
      DecodeNext();
    }
    if (k < recs_.size()) {
      *rec = recs_[k];
      return Pull::kRec;
    }
    return state_;
  }

  // The run code from the anchor on; empty if out of range or unreadable.
  std::span<const uint8_t> code() const { return code_; }

  // Charges a decode of the first `end` bytes, `nops` of them no-ops.
  void Claim(uint64_t end, uint64_t nops) {
    if (end > claimed_end_) {
      claimed_end_ = end;
      claimed_nops_ = nops;
    }
  }

  // Bytes decoded (or claimed), and the nop bytes among them.
  uint64_t consumed() const { return std::max(decode_pos_, claimed_end_); }
  uint64_t nops_skipped() const {
    return decode_pos_ >= claimed_end_ ? nops_skipped_ : claimed_nops_;
  }

 private:
  void DecodeNext() {
    if (decode_pos_ >= code_.size()) {
      state_ = Pull::kEndOfCode;
      return;
    }
    ks::Result<kvx::Insn> insn =
        kvx::Decode(code_.subspan(static_cast<size_t>(decode_pos_)));
    if (!insn.ok()) {
      state_ = Pull::kBadDecode;
      return;
    }
    if (kvx::GetOpInfo(insn->op).is_nop) {
      nops_skipped_ += insn->len;
    } else {
      recs_.push_back(CodeRec{static_cast<uint32_t>(decode_pos_), *insn});
    }
    decode_pos_ += insn->len;
  }

  std::span<const uint8_t> code_;
  std::vector<CodeRec> recs_;
  uint64_t decode_pos_ = 0;
  uint64_t nops_skipped_ = 0;
  uint64_t claimed_end_ = 0;
  uint64_t claimed_nops_ = 0;
  Pull state_ = Pull::kRec;  // kRec = decoding can continue
};

// ------------------------------------------------------------------
// Symbol slots.

// One kallsyms entry of a slot's name, as far as matching reads it.
struct KnownSymbol {
  uint32_t address = 0;
  kelf::SymbolKind kind = kelf::SymbolKind::kNone;
};

// Each slot's kallsyms entries, looked up once per MatchUnit call. Read
// live from the machine like the run bytes: module loads and unloads
// change them between calls.
class SlotSymbols {
 public:
  SlotSymbols(const kvm::Machine& machine, const MatchPlan& plan) {
    for (const std::string& name : plan.slot_names) {
      begin_.push_back(known_.size());
      machine.VisitSymbolsNamed(name, [this](const kelf::LinkedSymbol& sym) {
        known_.push_back(KnownSymbol{sym.address, sym.kind});
      });
    }
    begin_.push_back(known_.size());
  }

  std::span<const KnownSymbol> operator[](uint32_t slot) const {
    return std::span<const KnownSymbol>(known_).subspan(
        begin_[slot], begin_[slot + 1] - begin_[slot]);
  }

 private:
  std::vector<KnownSymbol> known_;  // every slot's entries, slot by slot
  std::vector<size_t> begin_;       // slot -> its first entry, plus the end
};

// A symbol valuation: the value of each slot, if known.
using Valuation = std::vector<std::optional<uint32_t>>;

// ------------------------------------------------------------------
// The verifier.

// One relocation site whose symbol value a successful verification
// recovered, in walk order (first occurrence per symbol). Carried with the
// cached LocalMatch so later fixpoint passes can re-check valuation
// consistency — reproducing the exact conflict message a full re-walk
// would produce — without touching a single code byte again.
struct RecoveredSite {
  uint32_t pre_pos = 0;
  uint32_t slot = 0;
  uint32_t value = 0;
};

struct LocalMatch {
  std::vector<RecoveredSite> sites;  // one per recovered slot, in order
  uint32_t run_size = 0;
};

std::string MismatchMessage(const kelf::ObjectFile& pre,
                            const kelf::Section& section, uint32_t pre_pos,
                            uint32_t run_start, const std::string& why) {
  return ks::StrPrintf(
      "run-pre mismatch in %s %s at pre offset %u (run %s): %s",
      pre.source_name().c_str(), section.name.c_str(), pre_pos,
      ks::Hex32(run_start).c_str(), why.c_str());
}

// Inverts one relocation site of a candidate and records the recovered
// symbol value in `local`. The site at pre offset `at_pre` holds `word`,
// relocated at run address `p_run`. The recovered value must be an address
// the kernel knows under the symbol's name, and must agree with the
// committed valuation and with the candidate's earlier sites. `entry`
// prefixes refusals from a howto table ("entry 3"); text sites pass "".
ks::Status RecoverSymbol(const MatchPlan& plan, const SlotSymbols& symbols,
                         const PlannedReloc& site, uint32_t word,
                         uint32_t p_run, uint32_t at_pre,
                         const std::string& entry, const Valuation& committed,
                         LocalMatch& local, MatchStats& stats) {
  stats.reloc_sites_inverted += 1;
  const kelf::Relocation& rel = *site.rel;
  uint32_t s = kelf::RelocSymbol(rel.type, word, rel.addend, p_run);
  const std::string& name = plan.slot_names[site.slot];
  auto prefix = [&entry] { return entry.empty() ? "" : entry + ": "; };
  // Cross-check against the symbol table: run-pre recovery can resolve
  // *which* same-named symbol a site refers to, but the recovered value
  // must still be one of the addresses the kernel knows by that name —
  // otherwise the "already-relocated value" is corrupt run code (or a
  // genuinely changed table entry), not a relocation result. (Addresses
  // inside previously-loaded update modules are in kallsyms too, so
  // stacking still passes.)
  std::span<const KnownSymbol> known = symbols[site.slot];
  if (!known.empty() &&
      std::none_of(known.begin(), known.end(),
                   [s](const KnownSymbol& candidate) {
                     return candidate.address == s;
                   })) {
    return ks::Aborted(ks::StrPrintf(
        "%s recovers '%s' = %s, which matches no symbol of that name in the "
        "kernel",
        entry.empty() ? "relocation site" : entry.c_str(), name.c_str(),
        ks::Hex32(s).c_str()));
  }
  const std::optional<uint32_t>& valued = committed[site.slot];
  if (valued.has_value() && *valued != s) {
    return ks::Aborted(ks::StrPrintf(
        "%ssymbol '%s' recovered as %s but already valued %s",
        prefix().c_str(), name.c_str(), ks::Hex32(s).c_str(),
        ks::Hex32(*valued).c_str()));
  }
  auto earlier = std::find_if(
      local.sites.begin(), local.sites.end(),
      [&site](const RecoveredSite& other) { return other.slot == site.slot; });
  if (earlier == local.sites.end()) {
    local.sites.push_back(RecoveredSite{at_pre, site.slot, s});
  } else if (earlier->value != s) {
    return ks::Aborted(ks::StrPrintf(
        "%ssymbol '%s' recovered inconsistently (%s vs %s)", prefix().c_str(),
        name.c_str(), ks::Hex32(s).c_str(), ks::Hex32(earlier->value).c_str()));
  }
  return ks::OkStatus();
}

// The byte path: if the run code equals the pre code outside the
// relocation fields, inverts the fields and decides as the walk would,
// charging `run` what it would have decoded; else nullopt.
std::optional<ks::Result<LocalMatch>> CompareBytes(
    const MatchPlan& plan, const PlannedSection& predec, uint32_t run_start,
    RunStream& run, const SlotSymbols& symbols, const Valuation& committed,
    MatchStats& stats) {
  const uint8_t* pre = predec.section->bytes.data();
  const uint8_t* code = run.code().data();
  uint32_t from = 0;
  for (size_t i = 0; i <= predec.fields.size(); ++i) {
    uint32_t to =
        i < predec.fields.size() ? predec.fields[i].at : predec.code_end;
    if (run.code().size() < predec.code_end ||
        !std::equal(pre + from, pre + to, code + from)) {
      return std::nullopt;
    }
    from = to + 4;
  }
  LocalMatch local;
  for (const PlannedSection::Field& field : predec.fields) {
    ks::Status recovered = RecoverSymbol(
        plan, symbols, field.site, ks::ReadLe32(code + field.at),
        run_start + field.at, field.rec_pos, "", committed, local, stats);
    if (!recovered.ok()) {
      run.Claim(field.rec_end, field.nops_before);
      return ks::Aborted(MismatchMessage(*plan.object, *predec.section,
                                         field.rec_pos, run_start,
                                         recovered.message()));
    }
  }
  run.Claim(predec.code_end, predec.code_nops);
  local.run_size = predec.code_end;
  return local;
}

// Verifies one (section, candidate) pair by walking pre and run
// instruction records in step, after trying the byte path when the section
// is byte-comparable. `predec` carries the pre decode and relocation index;
// `run` the run code. `committed` is the valuation accumulated so far (a
// conflicting recovery fails the match). Relocation inversions charge into
// `stats`.
ks::Result<LocalMatch> VerifyCandidate(
    const MatchPlan& plan, const PlannedSection& predec, uint32_t run_start,
    RunStream& run, const SlotSymbols& symbols, const Valuation& committed,
    MatchStats& stats) {
  stats.candidates_tried += 1;
  if (predec.byte_comparable) {
    if (auto decided = CompareBytes(plan, predec, run_start, run, symbols,
                                    committed, stats)) {
      return *std::move(decided);
    }
  }
  auto mismatch = [&](uint32_t pre_pos, const std::string& why) {
    return ks::Aborted(MismatchMessage(*plan.object, *predec.section,
                                       pre_pos, run_start, why));
  };
  const std::map<uint32_t, PlannedReloc>& reloc_at = predec.reloc_at;

  LocalMatch local;
  struct BranchCheck {
    uint32_t pre_target;  // section offset
    uint32_t run_target;  // absolute address
    uint32_t at;          // diagnostic: pre offset of the branch
  };
  std::vector<BranchCheck> checks;
  auto recover = [&](const PlannedReloc& site, uint32_t word,
                     uint32_t p_run, uint32_t at_pre) {
    return RecoverSymbol(plan, symbols, site, word, p_run, at_pre, "",
                         committed, local, stats);
  };

  const size_t npre = predec.recs.size();
  uint32_t last_run_end = 0;  // offset after the last matched run insn
  for (size_t k = 0; k < npre; ++k) {
    const CodeRec& P = predec.recs[k];
    CodeRec R;
    switch (run.GetRec(k, &R)) {
      case RunStream::Pull::kOutOfRange:
        return mismatch(0, "candidate address out of range");
      case RunStream::Pull::kUnreadable:
        return mismatch(0, "candidate address unreadable");
      case RunStream::Pull::kEndOfCode:
        return mismatch(P.pos, "run code ends early");
      case RunStream::Pull::kBadDecode:
        return mismatch(P.pos, "run bytes do not decode");
      case RunStream::Pull::kRec:
        break;
    }

    uint32_t run_insn_end = run_start + R.pos + R.insn.len;
    uint32_t pre_insn_end = P.pos + P.insn.len;

    if (P.insn.op == R.insn.op) {
      const kvx::OpInfo& info = kvx::GetOpInfo(P.insn.op);
      if (info.has_reg1 && P.insn.reg1 != R.insn.reg1) {
        return mismatch(P.pos, "register operand differs");
      }
      if (info.has_reg2 && P.insn.reg2 != R.insn.reg2) {
        return mismatch(P.pos, "register operand differs");
      }
      if (info.has_imm8 && P.insn.imm != R.insn.imm) {
        return mismatch(P.pos, "immediate differs");
      }
      int field = kvx::Imm32FieldOffset(P.insn.op);
      if (field >= 0) {
        auto rel_it = reloc_at.find(P.pos + static_cast<uint32_t>(field));
        if (rel_it != reloc_at.end()) {
          // The already-relocated run word at the field: the imm32 value,
          // or the stored rel32 displacement bits.
          uint32_t value = info.has_imm32
                               ? R.insn.imm
                               : static_cast<uint32_t>(R.insn.rel);
          uint32_t p_run = run_start + R.pos + static_cast<uint32_t>(field);
          ks::Status recovered = recover(rel_it->second, value, p_run,
                                         P.pos);
          if (!recovered.ok()) {
            return mismatch(P.pos, recovered.message());
          }
        } else if (info.has_rel32) {
          checks.push_back(BranchCheck{
              pre_insn_end + static_cast<uint32_t>(P.insn.rel),
              run_insn_end + static_cast<uint32_t>(R.insn.rel), P.pos});
        } else if (P.insn.imm != R.insn.imm) {
          return mismatch(P.pos, "immediate differs");
        }
      }
      if (info.has_rel8) {
        checks.push_back(BranchCheck{
            pre_insn_end + static_cast<uint32_t>(P.insn.rel),
            run_insn_end + static_cast<uint32_t>(R.insn.rel), P.pos});
      }
      last_run_end = R.pos + R.insn.len;
      continue;
    }

    if (kvx::SameBranchFamily(P.insn.op, R.insn.op)) {
      // Same control transfer, different displacement widths (§4.3: the
      // matcher must know the instruction set well enough to see that the
      // jumps point to corresponding locations).
      int field = kvx::Imm32FieldOffset(P.insn.op);
      auto rel_it = field >= 0
                        ? reloc_at.find(P.pos + static_cast<uint32_t>(field))
                        : reloc_at.end();
      if (rel_it != reloc_at.end()) {
        // Pre carries a relocation (cross-section branch); the run target
        // *is* the symbol value (pcrel32 addend is always -4).
        uint32_t run_target =
            run_insn_end + static_cast<uint32_t>(R.insn.rel);
        const kelf::Relocation& rel = *rel_it->second.rel;
        if (rel.type != kelf::RelocType::kPcrel32 || rel.addend != -4) {
          return mismatch(P.pos, "unexpected relocation on branch");
        }
        // Emulate a 4-byte field ending at the run instruction: the stored
        // value would be run_target - run_insn_end at P = run_insn_end - 4,
        // so recover() yields S = run_target.
        ks::Status recovered = recover(
            rel_it->second, run_target - run_insn_end, run_insn_end - 4, P.pos);
        if (!recovered.ok()) {
          return mismatch(P.pos, recovered.message());
        }
      } else {
        checks.push_back(BranchCheck{
            pre_insn_end + static_cast<uint32_t>(P.insn.rel),
            run_insn_end + static_cast<uint32_t>(R.insn.rel), P.pos});
      }
      last_run_end = R.pos + R.insn.len;
      continue;
    }

    return mismatch(P.pos,
                    ks::StrPrintf("opcode differs (pre %s, run %s)",
                                  kvx::FormatInsn(P.insn).c_str(),
                                  kvx::FormatInsn(R.insn).c_str()));
  }

  if (predec.decode_error) {
    return mismatch(predec.end, "pre bytes do not decode");
  }

  // Validate internal branch correspondences, tolerating no-op padding on
  // either side of a target.
  auto run_rec_addr = [&](size_t k) -> uint32_t {
    CodeRec rec;
    RunStream::Pull pull = run.GetRec(k, &rec);
    assert(pull == RunStream::Pull::kRec);  // pulled during the walk
    (void)pull;
    return run_start + rec.pos;
  };
  for (const BranchCheck& check : checks) {
    auto bit = std::lower_bound(
        predec.boundary.begin(), predec.boundary.end(), check.pre_target,
        [](const auto& entry, uint32_t pos) { return entry.first < pos; });
    if (bit == predec.boundary.end() || bit->first != check.pre_target) {
      return mismatch(check.at, "branch targets a non-boundary");
    }
    size_t k = bit->second;
    // The walk's correspondence at this boundary: a real instruction
    // boundary maps to its matched run instruction; a nop boundary (or the
    // end) maps to the end of the previously matched run instruction.
    uint32_t direct;
    if (k < npre && predec.recs[k].pos == check.pre_target) {
      direct = run_rec_addr(k);
    } else if (k == 0) {
      direct = run_start;
    } else {
      CodeRec rec;
      RunStream::Pull pull = run.GetRec(k - 1, &rec);
      assert(pull == RunStream::Pull::kRec);
      (void)pull;
      direct = run_start + rec.pos + rec.insn.len;
    }
    if (direct == check.run_target) {
      continue;
    }
    // Normalize both sides across their no-op padding.
    uint64_t expect =
        k < npre ? run_rec_addr(k)
                 : static_cast<uint64_t>(run_start) + last_run_end;
    uint64_t got = NormalizeBranchTarget(run.code().first(last_run_end),
                                         run_start, check.run_target);
    if (expect != got) {
      return mismatch(check.at, "branch target does not correspond");
    }
  }

  local.run_size = last_run_end;
  return local;
}

// Verifies one howto-tagged (non-text) section against a candidate address
// using the per-howto strategy the section kind demands (§4.3 applied to
// special sections):
//
//  - kDate / kTime: content-ignoring. The run kernel's build timestamp
//    legitimately differs from the pre object's; only the shape is checked
//    (readable, same length, NUL-terminated).
//  - kExtable / kBug: entry-structural. Each 8-byte entry is a pair of
//    32-bit words matched under relocation, not byte-wise: a word with a
//    relocation inverts it (Abs32: S = val - A; Pcrel32: S = val + P - A)
//    and recovers the symbol value, a word without one must be identical.
//    Failures name the entry index.
ks::Result<LocalMatch> VerifyTableCandidate(
    const kvm::Machine::MemoryView& memory, const MatchPlan& plan,
    const PlannedSection& planned, uint32_t run_start,
    const SlotSymbols& symbols, const Valuation& committed,
    MatchStats& stats) {
  stats.candidates_tried += 1;
  const kelf::Section& section = *planned.section;
  auto mismatch = [&](uint32_t pre_pos, const std::string& why) {
    return ks::Aborted(
        MismatchMessage(*plan.object, section, pre_pos, run_start, why));
  };

  const uint32_t size = static_cast<uint32_t>(section.bytes.size());
  ks::Result<std::span<const uint8_t>> run_bytes = memory.From(run_start);
  if (!run_bytes.ok() || run_bytes->size() < size) {
    return mismatch(0, "candidate address unreadable");
  }

  LocalMatch local;
  local.run_size = size;

  if (section.howto == kelf::Howto::kDate ||
      section.howto == kelf::Howto::kTime) {
    if (size == 0 || (*run_bytes)[size - 1] != 0) {
      return mismatch(size == 0 ? 0 : size - 1,
                      "build timestamp string is not NUL-terminated");
    }
    return local;
  }

  for (uint32_t off = 0; off + 4 <= size; off += 4) {
    uint32_t entry_index = off / kelf::kHowtoEntrySize;
    uint32_t run_word = ks::ReadLe32(run_bytes->data() + off);
    auto rel_it = planned.reloc_at.find(off);
    if (rel_it == planned.reloc_at.end()) {
      // Literal word (e.g. a bug entry's source line): byte-identical.
      uint32_t pre_word = ks::ReadLe32(section.bytes.data() + off);
      if (pre_word != run_word) {
        return mismatch(
            off, ks::StrPrintf("entry %u literal word differs (pre %s, run %s)",
                               entry_index, ks::Hex32(pre_word).c_str(),
                               ks::Hex32(run_word).c_str()));
      }
      continue;
    }
    ks::Status recovered = RecoverSymbol(
        plan, symbols, rel_it->second, run_word, run_start + off, off,
        ks::StrPrintf("entry %u", entry_index), committed, local, stats);
    if (!recovered.ok()) {
      return mismatch(off, recovered.message());
    }
  }
  return local;
}

// ------------------------------------------------------------------
// Publication.

// Aggregates one MatchUnit call's stats into the process-wide registry.
// The pre-side decode is not among them: MatchPlan::Build publishes it.
void PublishMatchStats(const MatchStats& stats, bool ok) {
  static ks::Counter& units = ks::Metrics().GetCounter("runpre.units_matched");
  static ks::Counter& failures =
      ks::Metrics().GetCounter("runpre.match_failures");
  static ks::Counter& sections =
      ks::Metrics().GetCounter("runpre.sections_matched");
  static ks::Counter& candidates =
      ks::Metrics().GetCounter("runpre.candidates_tried");
  static ks::Counter& bytes = ks::Metrics().GetCounter("runpre.bytes_matched");
  static ks::Counter& nops =
      ks::Metrics().GetCounter("runpre.nop_bytes_skipped");
  static ks::Counter& relocs =
      ks::Metrics().GetCounter("runpre.reloc_sites_inverted");
  static ks::Counter& deferrals =
      ks::Metrics().GetCounter("runpre.ambiguity_deferrals");
  static ks::Counter& passes =
      ks::Metrics().GetCounter("runpre.fixpoint_passes");
  static ks::Counter& revalidations =
      ks::Metrics().GetCounter("runpre.revalidations");
  static ks::Counter& index_run_bytes =
      ks::Metrics().GetCounter("runpre.index.run_bytes_canonicalized");
  static ks::Counter& howto_extable =
      ks::Metrics().GetCounter("runpre.howto.extable_sections_matched");
  static ks::Counter& howto_bug =
      ks::Metrics().GetCounter("runpre.howto.bug_table_sections_matched");
  static ks::Counter& howto_date_time =
      ks::Metrics().GetCounter("runpre.howto.date_time_sections_matched");
  (ok ? units : failures).Add(1);
  sections.Add(stats.sections_matched);
  candidates.Add(stats.candidates_tried);
  bytes.Add(stats.run_bytes_matched);
  nops.Add(stats.nop_bytes_skipped);
  relocs.Add(stats.reloc_sites_inverted);
  deferrals.Add(stats.ambiguity_deferrals);
  passes.Add(stats.fixpoint_passes);
  revalidations.Add(stats.revalidations);
  index_run_bytes.Add(stats.run_bytes_canonicalized);
  howto_extable.Add(stats.extable_sections_matched);
  howto_bug.Add(stats.bug_table_sections_matched);
  howto_date_time.Add(stats.date_time_sections_matched);
}

// ------------------------------------------------------------------
// The fixpoint driver.

// Cached outcome of one (section, candidate) verification. A failed
// candidate never recovers (byte mismatches are permanent and the
// committed valuation only grows), and a successful one only needs its
// recovered sites re-checked against the valuation, so nothing is ever
// verified twice.
using Attempt = ks::Result<LocalMatch>;

struct PendingSection {
  const PlannedSection* plan = nullptr;
  std::map<uint32_t, Attempt> attempts;  // candidate addr -> outcome
};

// How many per-candidate failure reasons an all-candidates-failed abort
// reports before eliding the rest.
constexpr size_t kMaxFailureReasons = 6;

}  // namespace

ks::Result<MatchPlan> MatchPlan::Build(const kelf::ObjectFile& pre,
                                       MatchStats* stats) {
  MatchPlan plan;
  plan.object = &pre;
  std::map<std::string, uint32_t> slots;
  auto intern = [&plan, &slots](const std::string& name) {
    auto [it, inserted] = slots.try_emplace(name, plan.slot_names.size());
    if (inserted) {
      plan.slot_names.push_back(name);
    }
    return it->second;
  };
  uint64_t decoded = 0;
  for (size_t si = 0; si < pre.sections().size(); ++si) {
    const kelf::Section& section = pre.sections()[si];
    // Text sections match instruction-wise; howto-tagged data sections
    // (exception tables, bug tables, build timestamps) match under their
    // per-kind structural strategy. Plain data stays out of run-pre.
    bool howto_table = section.howto != kelf::Howto::kNone;
    if ((section.kind != kelf::SectionKind::kText && !howto_table) ||
        section.bytes.empty()) {
      continue;
    }
    std::optional<int> def = pre.DefiningSymbolForSection(
        static_cast<int>(si));
    if (!def.has_value()) {
      return ks::InvalidArgument(ks::StrPrintf(
          "run-pre: section %s of %s has no defining symbol (was the pre "
          "build made with -ffunction-sections?)",
          section.name.c_str(), pre.source_name().c_str()));
    }
    PlannedSection& planned = plan.sections.emplace_back();
    planned.section = &section;
    planned.slot = intern(pre.symbols()[static_cast<size_t>(*def)].name);
    planned.howto = section.howto;
    for (const kelf::Relocation& rel : section.relocs) {
      planned.reloc_at[rel.offset] = PlannedReloc{
          &rel, intern(pre.symbols()[static_cast<size_t>(rel.symbol)].name)};
    }
    if (!howto_table) {
      DecodePre(planned);
      PlanBytePath(planned);
      decoded += planned.end;
    }
  }
  static ks::Counter& pre_bytes =
      ks::Metrics().GetCounter("runpre.index.pre_bytes_canonicalized");
  pre_bytes.Add(decoded);
  if (stats != nullptr) {
    stats->pre_bytes_canonicalized += decoded;
  }
  return plan;
}

ks::Result<PackagePlan> PackagePlan::Build(const UpdatePackage& package,
                                           MatchStats* stats) {
  ks::TraceSpan span("runpre.plan_package");
  span.Annotate("id", package.id);
  PackagePlan plan;
  plan.package = &package;
  plan.content_hash = PackageContentHash(package);
  for (const kelf::ObjectFile& helper : package.helper_objects) {
    plan.helper_bytes += static_cast<uint32_t>(helper.Serialize().size());
    KS_ASSIGN_OR_RETURN(MatchPlan unit, MatchPlan::Build(helper, stats));
    plan.units.push_back(std::move(unit));
  }
  return plan;
}

ks::Result<UnitMatch> RunPreMatcher::MatchUnit(const kelf::ObjectFile& pre,
                                               MatchStats* stats) const {
  MatchStats built;
  KS_ASSIGN_OR_RETURN(MatchPlan plan, MatchPlan::Build(pre, &built));
  ks::Result<UnitMatch> match = MatchUnit(plan, stats);
  if (stats != nullptr) {
    stats->MergeFrom(built);
  }
  return match;
}

ks::Result<UnitMatch> RunPreMatcher::MatchUnit(const MatchPlan& plan,
                                               MatchStats* stats) const {
  const kelf::ObjectFile& pre = *plan.object;
  ks::TraceSpan span("runpre.match_unit");
  span.Annotate("unit", pre.source_name());
  MatchStats scratch;
  MatchStats& tally = stats != nullptr ? *stats : scratch;
  tally = MatchStats{};
  // The machine lock, held for the whole match: run code is read in place.
  const kvm::Machine::MemoryView memory(machine_);
  const uint64_t mem_end = machine_.config().memory_bytes;
  // One RunStream per candidate address, shared across sections and passes.
  std::map<uint32_t, RunStream> streams;
  // However this call ends (including every early error return below),
  // charge the run decode, counted once per stream however many sections
  // and passes shared it, and publish to the registry.
  struct Publisher {
    MatchStats& tally;
    const std::map<uint32_t, RunStream>& streams;
    bool ok = false;
    ~Publisher() {
      for (const auto& [addr, stream] : streams) {
        tally.run_bytes_canonicalized += stream.consumed();
        tally.nop_bytes_skipped += stream.nops_skipped();
      }
      PublishMatchStats(tally, ok);
    }
  } publisher{tally, streams};

  UnitMatch match;
  match.unit = pre.source_name();
  SlotSymbols symbols(machine_, plan);
  Valuation values(plan.slot_names.size());

  std::vector<PendingSection> pending;
  pending.reserve(plan.sections.size());
  for (const PlannedSection& section : plan.sections) {
    pending.push_back(PendingSection{&section, {}});
  }

  // The candidate list for a section under the given valuation — the same
  // precedence as always: an already-committed value pins the candidate,
  // else the stacking redirect, else every same-named kallsyms function.
  auto compute_candidates =
      [&](const PendingSection& entry) -> std::vector<uint32_t> {
    std::vector<uint32_t> candidates;
    const uint32_t slot = entry.plan->slot;
    if (values[slot].has_value()) {
      candidates.push_back(*values[slot]);
    } else if (redirect_ != nullptr) {
      std::optional<std::pair<uint32_t, uint32_t>> redirected =
          redirect_(match.unit, plan.slot_names[slot]);
      if (redirected.has_value()) {
        candidates.push_back(redirected->first);
      }
    }
    if (candidates.empty()) {
      // Text sections anchor at function symbols; howto tables at the
      // object symbol their section defines (__extable_<fn>, kbuild.date.*).
      kelf::SymbolKind want = entry.plan->howto == kelf::Howto::kNone
                                  ? kelf::SymbolKind::kFunction
                                  : kelf::SymbolKind::kObject;
      for (const KnownSymbol& sym : symbols[slot]) {
        if (sym.kind == want) {
          candidates.push_back(sym.address);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    }
    return candidates;
  };

  // Verifies one candidate of one section against the current valuation.
  auto verify = [&](const PendingSection& entry, uint32_t candidate) {
    const PlannedSection& section = *entry.plan;
    if (section.howto != kelf::Howto::kNone) {
      return VerifyTableCandidate(memory, plan, section, candidate, symbols,
                                  values, tally);
    }
    RunStream& stream =
        streams.try_emplace(candidate, memory, candidate, mem_end)
            .first->second;
    return VerifyCandidate(plan, section, candidate, stream, symbols, values,
                           tally);
  };

  // Re-checks a cached successful verification against the current
  // valuation, reproducing the exact conflict message a re-walk would
  // give. Returns OkStatus when the candidate still matches.
  auto revalidate = [&](const PendingSection& entry, uint32_t candidate,
                        const LocalMatch& local) -> ks::Status {
    tally.revalidations += 1;
    for (const RecoveredSite& site : local.sites) {
      const std::optional<uint32_t>& valued = values[site.slot];
      if (valued.has_value() && *valued != site.value) {
        return ks::Aborted(MismatchMessage(
            pre, *entry.plan->section, site.pre_pos, candidate,
            ks::StrPrintf("symbol '%s' recovered as %s but already valued %s",
                          plan.slot_names[site.slot].c_str(),
                          ks::Hex32(site.value).c_str(),
                          ks::Hex32(*valued).c_str())));
      }
    }
    return ks::OkStatus();
  };

  // Iterate to a fixpoint: each pass matches sections whose candidate set
  // resolves to exactly one successful address; the committed valuation
  // then disambiguates harder sections on later passes. Per pass:
  // (1) schedule: compute each section's pass-start candidate list;
  // (2) verify every uncached (section, candidate) pair against the
  //     pass-start valuation (nothing commits before phase 3);
  // (3) in section order, gather per-section outcomes against the
  //     *current* valuation (commits propagate within a pass) and commit
  //     unique successes.
  while (!pending.empty()) {
    tally.fixpoint_passes += 1;

    // (1) Schedule and (2) verify.
    for (PendingSection& entry : pending) {
      for (uint32_t candidate : compute_candidates(entry)) {
        if (entry.attempts.count(candidate) == 0) {
          entry.attempts.emplace(candidate, verify(entry, candidate));
        }
      }
    }

    // (3) Gather and commit in section order.
    bool progress = false;
    std::vector<PendingSection> still_pending;
    for (PendingSection& entry : pending) {
      const kelf::Section& section = *entry.plan->section;
      const std::string& symbol = plan.slot_names[entry.plan->slot];
      // Re-derive the candidate list: a commit earlier in this same pass
      // may have pinned this symbol to a single address.
      std::vector<uint32_t> candidates = compute_candidates(entry);
      if (candidates.empty()) {
        return ks::Aborted(ks::StrPrintf(
            "run-pre: no run candidate for %s (%s in %s) — does the given "
            "source correspond to the running kernel?",
            symbol.c_str(), section.name.c_str(),
            match.unit.c_str()));
      }

      std::vector<std::pair<uint32_t, const LocalMatch*>> successes;
      for (uint32_t candidate : candidates) {
        auto it = entry.attempts.find(candidate);
        if (it == entry.attempts.end()) {
          // Never scheduled: the valuation pinned an address the pass-start
          // candidate list did not contain. Verify it now, against the
          // current valuation.
          it = entry.attempts.emplace(candidate, verify(entry, candidate))
                   .first;
        } else if (it->second.ok()) {
          ks::Status still = revalidate(entry, candidate, *it->second);
          if (!still.ok()) {
            it->second = std::move(still);
          }
        }
        if (it->second.ok()) {
          successes.emplace_back(candidate, &*it->second);
        }
      }

      if (successes.empty()) {
        // Report every candidate's address and reason (capped), so an
        // ambiguous-symbol failure names which copy failed why, instead of
        // surfacing only whichever candidate happened to fail last.
        std::string detail;
        for (size_t i = 0; i < candidates.size(); ++i) {
          if (i == kMaxFailureReasons) {
            detail += ks::StrPrintf("\n  ... and %zu more candidate(s)",
                                    candidates.size() - kMaxFailureReasons);
            break;
          }
          uint32_t candidate = candidates[i];
          detail += ks::StrPrintf(
              "\n  candidate %s: %s", ks::Hex32(candidate).c_str(),
              entry.attempts.at(candidate).status().message().c_str());
        }
        return ks::Aborted(ks::StrPrintf(
            "run-pre: %s in %s matches no candidate (%zu tried):%s",
            symbol.c_str(), match.unit.c_str(), candidates.size(),
            detail.c_str()));
      }
      if (successes.size() > 1) {
        tally.ambiguity_deferrals += 1;
        still_pending.push_back(std::move(entry));
        continue;  // hope valuation will disambiguate on a later pass
      }

      // Commit.
      uint32_t address = successes[0].first;
      const LocalMatch& local = *successes[0].second;
      for (const RecoveredSite& site : local.sites) {
        std::optional<uint32_t>& valued = values[site.slot];
        if (valued.has_value() && *valued != site.value) {
          return ks::Aborted(ks::StrPrintf(
              "run-pre: symbol '%s' valued inconsistently across sections",
              plan.slot_names[site.slot].c_str()));
        }
        valued = site.value;
      }
      std::optional<uint32_t>& own = values[entry.plan->slot];
      if (own.has_value() && *own != address) {
        return ks::Aborted(ks::StrPrintf(
            "run-pre: section %s matched at %s but '%s' is valued %s",
            section.name.c_str(), ks::Hex32(address).c_str(), symbol.c_str(),
            ks::Hex32(*own).c_str()));
      }
      own = address;
      MatchedSection matched;
      matched.name = section.name;
      matched.symbol = symbol;
      matched.run_address = address;
      matched.run_size = local.run_size;
      match.sections[section.name] = std::move(matched);
      tally.sections_matched += 1;
      tally.run_bytes_matched += local.run_size;
      switch (entry.plan->howto) {
        case kelf::Howto::kNone:
          break;
        case kelf::Howto::kExtable:
          tally.extable_sections_matched += 1;
          break;
        case kelf::Howto::kBug:
          tally.bug_table_sections_matched += 1;
          break;
        case kelf::Howto::kDate:
        case kelf::Howto::kTime:
          tally.date_time_sections_matched += 1;
          break;
      }
      progress = true;
    }
    if (!progress) {
      std::string names;
      for (const PendingSection& entry : still_pending) {
        if (!names.empty()) {
          names += ", ";
        }
        names += plan.slot_names[entry.plan->slot];
      }
      return ks::Aborted(ks::StrPrintf(
          "run-pre: ambiguous symbols could not be resolved in %s: %s",
          match.unit.c_str(), names.c_str()));
    }
    pending = std::move(still_pending);
  }

  for (uint32_t slot = 0; slot < values.size(); ++slot) {
    if (values[slot].has_value()) {
      match.symbol_values.emplace(plan.slot_names[slot], *values[slot]);
    }
  }
  tally.symbols_recovered = match.symbol_values.size();
  span.Annotate("sections", tally.sections_matched);
  span.Annotate("bytes_matched", tally.run_bytes_matched);
  publisher.ok = true;
  return match;
}

}  // namespace ksplice
