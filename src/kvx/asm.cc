#include "kvx/asm.h"

#include <map>
#include <optional>
#include <vector>

#include "base/endian.h"
#include "base/strings.h"
#include "kvx/isa.h"

namespace kvx {

namespace {

using kelf::ObjectFile;
using kelf::RelocType;
using kelf::Section;
using kelf::SectionKind;
using kelf::Symbol;
using kelf::SymbolBinding;
using kelf::SymbolKind;

// Text alignment before every function label (see the header comment).
constexpr uint32_t kFuncAlign = 8;

struct ItemReloc {
  uint32_t offset = 0;  // within the item
  std::string symbol;
  int32_t addend = 0;
  RelocType type = RelocType::kAbs32;
};

struct AsmItem {
  enum class Kind { kBytes, kBranch, kAlign };
  Kind kind = Kind::kBytes;
  std::vector<uint8_t> bytes;       // kBytes payload (zeroes for .space)
  std::vector<ItemReloc> relocs;    // kBytes relocations
  Op branch_op = Op::kJmp32;        // kBranch: long form, or kCall
  std::string target;               // kBranch target name
  uint32_t align = 1;               // kAlign
  bool is_long = false;             // kBranch relaxation state
  int line = 0;
};

struct AsmSection {
  std::string name;
  SectionKind kind = SectionKind::kText;
  uint32_t align = 1;
  std::vector<AsmItem> items;
  // Label/symbol name -> position: offset of the label is the offset just
  // before items[position].
  std::map<std::string, size_t> labels;
};

struct DefinedSym {
  std::string name;
  size_t section = 0;  // index into sections vector
  size_t position = 0; // item position within the section
};

// A pending exception-table or bug-table entry. Entries reference local
// labels whose offsets are only known after branch relaxation, so the
// directives record them here and Finish() materializes the 8-byte items
// (with ABS32 relocations against the enclosing function symbol) into a
// per-function `.extable.<fn>` / `.bug_table.<fn>` section.
struct DeferredEntry {
  enum class Kind { kExtable, kBug };
  Kind kind = Kind::kExtable;
  size_t section = 0;  // text section holding fn and the labels
  std::string fn;      // enclosing function symbol
  std::string label1;  // faulting-insn / trap-site label
  std::string label2;  // fixup label (extable only)
  uint32_t bug_line = 0;  // source line (bug only)
  int src_line = 0;       // assembly line, for diagnostics
};

class Assembler {
 public:
  Assembler(std::string source_name, const AsmOptions& options)
      : source_name_(std::move(source_name)), options_(options) {}

  ks::Result<ObjectFile> Run(std::string_view source);

 private:
  enum class Segment { kText, kData, kBss };

  ks::Status ParseLine(std::string_view line);
  ks::Status ParseDirective(const std::vector<std::string>& tokens);
  ks::Status ParseInstruction(const std::vector<std::string>& tokens);
  ks::Status DefineLabel(const std::string& name);

  // Section management -------------------------------------------------
  AsmSection& CurrentSection();
  size_t EnsureSection(const std::string& name, SectionKind kind,
                       uint32_t align);
  ks::Status SwitchSegment(Segment segment);

  // Emission helpers ----------------------------------------------------
  void EmitBytes(std::vector<uint8_t> bytes,
                 std::vector<ItemReloc> relocs = {});
  void EmitBranch(Op long_op, std::string target);
  void EmitAlign(uint32_t align);

  ks::Status Error(const std::string& message) const {
    return ks::InvalidArgument(ks::StrPrintf(
        "%s:%d: %s", source_name_.c_str(), line_number_, message.c_str()));
  }

  // Operand parsing -----------------------------------------------------
  std::optional<uint8_t> ParseRegister(std::string_view token) const;
  std::optional<int64_t> ParseNumber(std::string_view token) const;
  // Parses "name", "name+4", "name-4" into (symbol, addend).
  std::optional<std::pair<std::string, int32_t>> ParseSymbolExpr(
      std::string_view token) const;

  // Final assembly ------------------------------------------------------
  ks::Result<ObjectFile> Finish();
  ks::Status MaterializeDeferredEntries();
  static std::vector<uint32_t> ComputeOffsets(const AsmSection& section);
  static ks::Status Relax(AsmSection& section);

  std::string source_name_;
  AsmOptions options_;
  int line_number_ = 0;
  Segment segment_ = Segment::kText;
  std::vector<AsmSection> sections_;
  size_t current_section_ = 0;
  std::vector<DefinedSym> defined_;
  std::vector<std::string> globals_;
  std::vector<DeferredEntry> deferred_;
  // True while inside a `.howto_section`: labels define symbols in place
  // instead of splitting into fresh `.data.<name>` sections.
  bool custom_section_ = false;
  bool initialized_ = false;
};

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '$';
}

// Splits an assembly line into tokens; commas separate operands, quoted
// strings stay whole (including quotes).
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (c == ' ' || c == '\t' || c == ',') {
      ++i;
      continue;
    }
    if (c == '"') {
      size_t j = i + 1;
      while (j < line.size() && line[j] != '"') {
        if (line[j] == '\\' && j + 1 < line.size()) {
          ++j;
        }
        ++j;
      }
      tokens.emplace_back(line.substr(i, j + 1 - i));
      i = j + 1;
      continue;
    }
    if (c == '[' || c == ']' || c == ':') {
      tokens.emplace_back(1, c);
      ++i;
      continue;
    }
    size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t' &&
           line[j] != ',' && line[j] != '[' && line[j] != ']' &&
           line[j] != ':') {
      ++j;
    }
    tokens.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

ks::Result<ObjectFile> Assembler::Run(std::string_view source) {
  EnsureSection(".text", SectionKind::kText, kFuncAlign);
  initialized_ = true;
  for (const std::string& raw_line : ks::SplitLines(source)) {
    ++line_number_;
    std::string_view line = raw_line;
    size_t comment = line.find_first_of(";#");
    // '#' inside a string would break here; our sources don't use it.
    if (comment != std::string_view::npos) {
      size_t quote = line.find('"');
      if (quote == std::string_view::npos || comment < quote) {
        line = line.substr(0, comment);
      }
    }
    line = ks::Trim(line);
    if (line.empty()) {
      continue;
    }
    KS_RETURN_IF_ERROR(ParseLine(line));
  }
  return Finish();
}

ks::Status Assembler::ParseLine(std::string_view line) {
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return ks::OkStatus();
  }
  // Labels: NAME : [rest...]
  while (tokens.size() >= 2 && tokens[1] == ":") {
    KS_RETURN_IF_ERROR(DefineLabel(tokens[0]));
    tokens.erase(tokens.begin(), tokens.begin() + 2);
  }
  if (tokens.empty()) {
    return ks::OkStatus();
  }
  if (tokens[0][0] == '.') {
    return ParseDirective(tokens);
  }
  return ParseInstruction(tokens);
}

AsmSection& Assembler::CurrentSection() { return sections_[current_section_]; }

size_t Assembler::EnsureSection(const std::string& name, SectionKind kind,
                                uint32_t align) {
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].name == name) {
      current_section_ = i;
      return i;
    }
  }
  AsmSection sec;
  sec.name = name;
  sec.kind = kind;
  sec.align = align;
  sections_.push_back(std::move(sec));
  current_section_ = sections_.size() - 1;
  return current_section_;
}

ks::Status Assembler::SwitchSegment(Segment segment) {
  segment_ = segment;
  custom_section_ = false;
  switch (segment) {
    case Segment::kText:
      EnsureSection(".text", SectionKind::kText, kFuncAlign);
      break;
    case Segment::kData:
      EnsureSection(".data", SectionKind::kData, 4);
      break;
    case Segment::kBss:
      EnsureSection(".bss", SectionKind::kBss, 4);
      break;
  }
  return ks::OkStatus();
}

ks::Status Assembler::DefineLabel(const std::string& name) {
  if (name.empty() || !IsIdentChar(name[0])) {
    return Error(ks::StrPrintf("bad label '%s'", name.c_str()));
  }
  bool local_label = name[0] == '.';
  if (!local_label && custom_section_) {
    // Inside a `.howto_section`: the label defines a symbol at the
    // current position of the custom section, never a split section.
    AsmSection& sec = CurrentSection();
    if (sec.labels.count(name) != 0) {
      return Error(ks::StrPrintf("duplicate label '%s'", name.c_str()));
    }
    sec.labels.emplace(name, sec.items.size());
    defined_.push_back(DefinedSym{name, current_section_, sec.items.size()});
    return ks::OkStatus();
  }
  if (!local_label) {
    // A symbol definition. With function/data sections, it opens a fresh
    // section; otherwise we pad to the function/object alignment in place.
    bool split = false;
    SectionKind kind = SectionKind::kText;
    uint32_t align = 4;
    std::string prefix;
    switch (segment_) {
      case Segment::kText:
        split = options_.function_sections;
        kind = SectionKind::kText;
        align = kFuncAlign;
        prefix = ".text.";
        break;
      case Segment::kData:
        split = options_.data_sections;
        kind = SectionKind::kData;
        prefix = ".data.";
        break;
      case Segment::kBss:
        split = options_.data_sections;
        kind = SectionKind::kBss;
        prefix = ".bss.";
        break;
    }
    if (split) {
      size_t idx = EnsureSection(prefix + name, kind, align);
      AsmSection& sec = sections_[idx];
      if (sec.labels.count(name) != 0) {
        return Error(ks::StrPrintf("duplicate label '%s'", name.c_str()));
      }
      sec.labels.emplace(name, sec.items.size());
      defined_.push_back(DefinedSym{name, idx, sec.items.size()});
      return ks::OkStatus();
    }
    EmitAlign(align);
  }
  AsmSection& sec = CurrentSection();
  if (sec.labels.count(name) != 0) {
    return Error(ks::StrPrintf("duplicate label '%s'", name.c_str()));
  }
  sec.labels.emplace(name, sec.items.size());
  if (!local_label) {
    defined_.push_back(DefinedSym{name, current_section_, sec.items.size()});
  }
  return ks::OkStatus();
}

void Assembler::EmitBytes(std::vector<uint8_t> bytes,
                          std::vector<ItemReloc> relocs) {
  AsmSection& sec = CurrentSection();
  // Merge adjacent byte items without relocations to keep item counts low.
  AsmItem item;
  item.kind = AsmItem::Kind::kBytes;
  item.bytes = std::move(bytes);
  item.relocs = std::move(relocs);
  item.line = line_number_;
  sec.items.push_back(std::move(item));
}

void Assembler::EmitBranch(Op long_op, std::string target) {
  AsmItem item;
  item.kind = AsmItem::Kind::kBranch;
  item.branch_op = long_op;
  item.target = std::move(target);
  item.line = line_number_;
  CurrentSection().items.push_back(std::move(item));
}

void Assembler::EmitAlign(uint32_t align) {
  if (align <= 1) {
    return;
  }
  AsmItem item;
  item.kind = AsmItem::Kind::kAlign;
  item.align = align;
  item.line = line_number_;
  CurrentSection().items.push_back(std::move(item));
}

std::optional<uint8_t> Assembler::ParseRegister(std::string_view token) const {
  if (token == "fp") {
    return kRegFp;
  }
  if (token == "sp") {
    return kRegSp;
  }
  if (token.size() == 2 && token[0] == 'r' && token[1] >= '0' &&
      token[1] <= '7') {
    return static_cast<uint8_t>(token[1] - '0');
  }
  return std::nullopt;
}

std::optional<int64_t> Assembler::ParseNumber(std::string_view token) const {
  if (token.empty()) {
    return std::nullopt;
  }
  bool negative = false;
  size_t i = 0;
  if (token[0] == '-') {
    negative = true;
    i = 1;
  }
  if (i >= token.size()) {
    return std::nullopt;
  }
  int64_t value = 0;
  if (token.size() > i + 2 && token[i] == '0' &&
      (token[i + 1] == 'x' || token[i + 1] == 'X')) {
    for (size_t j = i + 2; j < token.size(); ++j) {
      char c = token[j];
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = c - 'A' + 10;
      } else {
        return std::nullopt;
      }
      value = value * 16 + digit;
    }
  } else {
    for (size_t j = i; j < token.size(); ++j) {
      char c = token[j];
      if (c < '0' || c > '9') {
        return std::nullopt;
      }
      value = value * 10 + (c - '0');
    }
  }
  return negative ? -value : value;
}

std::optional<std::pair<std::string, int32_t>> Assembler::ParseSymbolExpr(
    std::string_view token) const {
  if (token.empty() || !IsIdentChar(token[0]) ||
      (token[0] >= '0' && token[0] <= '9')) {
    return std::nullopt;
  }
  size_t i = 0;
  while (i < token.size() && IsIdentChar(token[i])) {
    ++i;
  }
  std::string name(token.substr(0, i));
  int32_t addend = 0;
  if (i < token.size()) {
    std::optional<int64_t> n;
    if (token[i] == '+') {
      n = ParseNumber(token.substr(i + 1));
    } else if (token[i] == '-') {
      n = ParseNumber(token.substr(i));
    }
    if (!n.has_value()) {
      return std::nullopt;
    }
    addend = static_cast<int32_t>(*n);
  }
  return std::make_pair(std::move(name), addend);
}

ks::Status Assembler::ParseDirective(const std::vector<std::string>& tokens) {
  const std::string& directive = tokens[0];
  if (directive == ".text") {
    return SwitchSegment(Segment::kText);
  }
  if (directive == ".data") {
    return SwitchSegment(Segment::kData);
  }
  if (directive == ".bss") {
    return SwitchSegment(Segment::kBss);
  }
  if (directive == ".global") {
    if (tokens.size() != 2) {
      return Error(".global needs one symbol");
    }
    globals_.push_back(tokens[1]);
    return ks::OkStatus();
  }
  if (directive == ".align") {
    if (tokens.size() != 2) {
      return Error(".align needs a value");
    }
    std::optional<int64_t> n = ParseNumber(tokens[1]);
    if (!n.has_value() || *n < 1 || *n > 4096 || (*n & (*n - 1)) != 0) {
      return Error(".align value must be a power of two in [1,4096]");
    }
    EmitAlign(static_cast<uint32_t>(*n));
    AsmSection& sec = CurrentSection();
    if (sec.align < static_cast<uint32_t>(*n)) {
      sec.align = static_cast<uint32_t>(*n);
    }
    return ks::OkStatus();
  }
  if (directive == ".word") {
    if (segment_ == Segment::kBss) {
      return Error(".word not allowed in .bss");
    }
    if (tokens.size() < 2) {
      return Error(".word needs at least one value");
    }
    std::vector<uint8_t> bytes;
    std::vector<ItemReloc> relocs;
    for (size_t i = 1; i < tokens.size(); ++i) {
      std::optional<int64_t> n = ParseNumber(tokens[i]);
      if (n.has_value()) {
        size_t at = bytes.size();
        bytes.resize(at + 4);
        ks::WriteLe32(bytes.data() + at, static_cast<uint32_t>(*n));
        continue;
      }
      auto sym = ParseSymbolExpr(tokens[i]);
      if (!sym.has_value()) {
        return Error(ks::StrPrintf("bad .word operand '%s'",
                                   tokens[i].c_str()));
      }
      relocs.push_back(ItemReloc{static_cast<uint32_t>(bytes.size()),
                                 sym->first, sym->second,
                                 RelocType::kAbs32});
      bytes.resize(bytes.size() + 4);
    }
    EmitBytes(std::move(bytes), std::move(relocs));
    return ks::OkStatus();
  }
  if (directive == ".byte") {
    if (segment_ == Segment::kBss) {
      return Error(".byte not allowed in .bss");
    }
    std::vector<uint8_t> bytes;
    for (size_t i = 1; i < tokens.size(); ++i) {
      std::optional<int64_t> n = ParseNumber(tokens[i]);
      if (!n.has_value() || *n < -128 || *n > 255) {
        return Error(
            ks::StrPrintf("bad .byte operand '%s'", tokens[i].c_str()));
      }
      bytes.push_back(static_cast<uint8_t>(*n));
    }
    EmitBytes(std::move(bytes));
    return ks::OkStatus();
  }
  if (directive == ".space") {
    if (tokens.size() != 2) {
      return Error(".space needs a size");
    }
    std::optional<int64_t> n = ParseNumber(tokens[1]);
    if (!n.has_value() || *n < 0 || *n > (1 << 24)) {
      return Error("bad .space size");
    }
    EmitBytes(std::vector<uint8_t>(static_cast<size_t>(*n), 0));
    return ks::OkStatus();
  }
  if (directive == ".asciz") {
    if (segment_ == Segment::kBss) {
      return Error(".asciz not allowed in .bss");
    }
    if (tokens.size() != 2 || tokens[1].size() < 2 || tokens[1][0] != '"' ||
        tokens[1].back() != '"') {
      return Error(".asciz needs one quoted string");
    }
    std::string_view body(tokens[1]);
    body = body.substr(1, body.size() - 2);
    std::vector<uint8_t> bytes;
    for (size_t i = 0; i < body.size(); ++i) {
      char c = body[i];
      if (c == '\\' && i + 1 < body.size()) {
        ++i;
        switch (body[i]) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case '\\':
            c = '\\';
            break;
          case '"':
            c = '"';
            break;
          default:
            return Error("bad escape in .asciz");
        }
      }
      bytes.push_back(static_cast<uint8_t>(c));
    }
    bytes.push_back(0);
    EmitBytes(std::move(bytes));
    return ks::OkStatus();
  }

  if (directive == ".howto_section") {
    // `.howto_section <name>`: switch to a literally-named data section
    // (e.g. `.rodata.date`); labels inside define symbols in place.
    if (tokens.size() != 2 || tokens[1].empty() || tokens[1][0] != '.') {
      return Error(".howto_section needs one section name");
    }
    segment_ = Segment::kData;
    EnsureSection(tokens[1], SectionKind::kData, 4);
    custom_section_ = true;
    return ks::OkStatus();
  }
  if (directive == ".extable_entry") {
    // `.extable_entry <fn>, <insn_label>, <fixup_label>` inside <fn>'s
    // text: records an exception-table pair; materialized after relaxation.
    if (tokens.size() != 4) {
      return Error(".extable_entry needs function, insn label, fixup label");
    }
    if (CurrentSection().kind != SectionKind::kText) {
      return Error(".extable_entry is only allowed in text");
    }
    DeferredEntry entry;
    entry.kind = DeferredEntry::Kind::kExtable;
    entry.section = current_section_;
    entry.fn = tokens[1];
    entry.label1 = tokens[2];
    entry.label2 = tokens[3];
    entry.src_line = line_number_;
    deferred_.push_back(std::move(entry));
    return ks::OkStatus();
  }
  if (directive == ".bug_entry") {
    // `.bug_entry <fn>, <trap_label>, <line>`: records a bug-table entry.
    if (tokens.size() != 4) {
      return Error(".bug_entry needs function, trap label, line number");
    }
    if (CurrentSection().kind != SectionKind::kText) {
      return Error(".bug_entry is only allowed in text");
    }
    std::optional<int64_t> n = ParseNumber(tokens[3]);
    if (!n.has_value() || *n < 0 || *n > 0x7fffffff) {
      return Error(ks::StrPrintf("bad .bug_entry line '%s'",
                                 tokens[3].c_str()));
    }
    DeferredEntry entry;
    entry.kind = DeferredEntry::Kind::kBug;
    entry.section = current_section_;
    entry.fn = tokens[1];
    entry.label1 = tokens[2];
    entry.bug_line = static_cast<uint32_t>(*n);
    entry.src_line = line_number_;
    deferred_.push_back(std::move(entry));
    return ks::OkStatus();
  }

  static const std::map<std::string, std::string> kHookSections = {
      {".ksplice_apply", ".ksplice.apply"},
      {".ksplice_pre_apply", ".ksplice.pre_apply"},
      {".ksplice_post_apply", ".ksplice.post_apply"},
      {".ksplice_reverse", ".ksplice.reverse"},
      {".ksplice_pre_reverse", ".ksplice.pre_reverse"},
      {".ksplice_post_reverse", ".ksplice.post_reverse"},
  };
  auto hook = kHookSections.find(directive);
  if (hook != kHookSections.end()) {
    if (tokens.size() != 2) {
      return Error(ks::StrPrintf("%s needs one symbol", directive.c_str()));
    }
    size_t saved = current_section_;
    EnsureSection(hook->second, SectionKind::kNote, 4);
    EmitBytes(std::vector<uint8_t>(4, 0),
              {ItemReloc{0, tokens[1], 0, RelocType::kAbs32}});
    current_section_ = saved;
    return ks::OkStatus();
  }

  return Error(ks::StrPrintf("unknown directive '%s'", directive.c_str()));
}

ks::Status Assembler::ParseInstruction(const std::vector<std::string>& tokens) {
  if (segment_ != Segment::kText ||
      CurrentSection().kind != SectionKind::kText) {
    return Error("instructions are only allowed in .text");
  }
  const std::string& mnemonic = tokens[0];
  size_t argc = tokens.size() - 1;

  auto encode0 = [&](Op op) {
    Insn insn;
    insn.op = op;
    EmitBytes(Encode(insn));
    return ks::OkStatus();
  };

  if (mnemonic == "nop") {
    return encode0(Op::kNop);
  }
  if (mnemonic == "halt") {
    return encode0(Op::kHalt);
  }
  if (mnemonic == "ret") {
    return encode0(Op::kRet);
  }
  if (mnemonic == "bug") {
    return encode0(Op::kBug);
  }

  if (mnemonic == "sys") {
    if (argc != 1) {
      return Error("sys needs one immediate");
    }
    std::optional<int64_t> n = ParseNumber(tokens[1]);
    if (!n.has_value() || *n < 0 || *n > 255) {
      return Error("bad sys number");
    }
    Insn insn;
    insn.op = Op::kSys;
    insn.imm = static_cast<uint32_t>(*n);
    EmitBytes(Encode(insn));
    return ks::OkStatus();
  }

  if (mnemonic == "push" || mnemonic == "pop" || mnemonic == "callr") {
    if (argc != 1) {
      return Error(ks::StrPrintf("%s needs one register", mnemonic.c_str()));
    }
    std::optional<uint8_t> reg = ParseRegister(tokens[1]);
    if (!reg.has_value()) {
      return Error(ks::StrPrintf("bad register '%s'", tokens[1].c_str()));
    }
    Insn insn;
    insn.op = mnemonic == "push"  ? Op::kPush
              : mnemonic == "pop" ? Op::kPop
                                  : Op::kCallR;
    insn.reg1 = *reg;
    EmitBytes(Encode(insn));
    return ks::OkStatus();
  }

  if (mnemonic == "call") {
    if (argc != 1) {
      return Error("call needs one target");
    }
    EmitBranch(Op::kCall, tokens[1]);
    return ks::OkStatus();
  }

  static const std::map<std::string, Op> kJumps = {
      {"jmp", Op::kJmp32}, {"jz", Op::kJz32},   {"jnz", Op::kJnz32},
      {"jlt", Op::kJlt32}, {"jge", Op::kJge32}, {"jgt", Op::kJgt32},
      {"jle", Op::kJle32},
  };
  auto jump = kJumps.find(mnemonic);
  if (jump != kJumps.end()) {
    if (argc != 1) {
      return Error("jump needs one target");
    }
    EmitBranch(jump->second, tokens[1]);
    return ks::OkStatus();
  }

  // load rd, [ rs ]   /  loadb rd, [ rs ]  /  loadf rd, [ rs ]
  if (mnemonic == "load" || mnemonic == "loadb" || mnemonic == "loadf") {
    if (argc != 4 || tokens[2] != "[" || tokens[4] != "]") {
      return Error(ks::StrPrintf("%s needs 'rD, [rS]'", mnemonic.c_str()));
    }
    std::optional<uint8_t> rd = ParseRegister(tokens[1]);
    std::optional<uint8_t> rs = ParseRegister(tokens[3]);
    if (!rd.has_value() || !rs.has_value()) {
      return Error("bad register in load");
    }
    Insn insn;
    insn.op = mnemonic == "load"    ? Op::kLoadI
              : mnemonic == "loadf" ? Op::kLoadF
                                    : Op::kLoadBI;
    insn.reg1 = *rd;
    insn.reg2 = *rs;
    EmitBytes(Encode(insn));
    return ks::OkStatus();
  }

  // store [ rd ], rs  /  storeb [ rd ], rs
  if (mnemonic == "store" || mnemonic == "storeb") {
    if (argc != 4 || tokens[1] != "[" || tokens[3] != "]") {
      return Error(ks::StrPrintf("%s needs '[rD], rS'", mnemonic.c_str()));
    }
    std::optional<uint8_t> rd = ParseRegister(tokens[2]);
    std::optional<uint8_t> rs = ParseRegister(tokens[4]);
    if (!rd.has_value() || !rs.has_value()) {
      return Error("bad register in store");
    }
    Insn insn;
    insn.op = mnemonic == "store" ? Op::kStoreI : Op::kStoreBI;
    insn.reg1 = *rd;
    insn.reg2 = *rs;
    EmitBytes(Encode(insn));
    return ks::OkStatus();
  }

  struct AluOps {
    Op rr;
    Op ri;  // kHalt marks "no immediate form"
  };
  static const std::map<std::string, AluOps> kAlu = {
      {"mov", {Op::kMovRR, Op::kMovRI}}, {"add", {Op::kAddRR, Op::kAddRI}},
      {"sub", {Op::kSubRR, Op::kSubRI}}, {"cmp", {Op::kCmpRR, Op::kCmpRI}},
      {"and", {Op::kAndRR, Op::kAndRI}}, {"mul", {Op::kMulRR, Op::kHalt}},
      {"or", {Op::kOrRR, Op::kHalt}},    {"xor", {Op::kXorRR, Op::kHalt}},
      {"div", {Op::kDivRR, Op::kHalt}},  {"mod", {Op::kModRR, Op::kHalt}},
      {"shl", {Op::kShlRR, Op::kHalt}},  {"shr", {Op::kShrRR, Op::kHalt}},
  };
  auto alu = kAlu.find(mnemonic);
  if (alu != kAlu.end()) {
    if (argc != 2) {
      return Error(ks::StrPrintf("%s needs two operands", mnemonic.c_str()));
    }
    std::optional<uint8_t> rd = ParseRegister(tokens[1]);
    if (!rd.has_value()) {
      return Error(ks::StrPrintf("bad destination '%s'", tokens[1].c_str()));
    }
    std::optional<uint8_t> rs = ParseRegister(tokens[2]);
    if (rs.has_value()) {
      Insn insn;
      insn.op = alu->second.rr;
      insn.reg1 = *rd;
      insn.reg2 = *rs;
      EmitBytes(Encode(insn));
      return ks::OkStatus();
    }
    if (alu->second.ri == Op::kHalt) {
      return Error(
          ks::StrPrintf("%s has no immediate form", mnemonic.c_str()));
    }
    // "=symbol[+off]" materializes an address with an ABS32 relocation.
    if (tokens[2][0] == '=') {
      if (alu->second.ri != Op::kMovRI) {
        return Error("address expressions only valid with mov");
      }
      auto sym = ParseSymbolExpr(std::string_view(tokens[2]).substr(1));
      if (!sym.has_value()) {
        return Error(
            ks::StrPrintf("bad address expression '%s'", tokens[2].c_str()));
      }
      Insn insn;
      insn.op = Op::kMovRI;
      insn.reg1 = *rd;
      insn.imm = 0;
      EmitBytes(Encode(insn),
                {ItemReloc{2, sym->first, sym->second, RelocType::kAbs32}});
      return ks::OkStatus();
    }
    std::optional<int64_t> n = ParseNumber(tokens[2]);
    if (!n.has_value()) {
      return Error(ks::StrPrintf("bad operand '%s'", tokens[2].c_str()));
    }
    Insn insn;
    insn.op = alu->second.ri;
    insn.reg1 = *rd;
    insn.imm = static_cast<uint32_t>(*n);
    EmitBytes(Encode(insn));
    return ks::OkStatus();
  }

  return Error(ks::StrPrintf("unknown mnemonic '%s'", mnemonic.c_str()));
}

std::vector<uint32_t> Assembler::ComputeOffsets(const AsmSection& section) {
  std::vector<uint32_t> offsets(section.items.size() + 1, 0);
  uint32_t off = 0;
  for (size_t i = 0; i < section.items.size(); ++i) {
    offsets[i] = off;
    const AsmItem& item = section.items[i];
    switch (item.kind) {
      case AsmItem::Kind::kBytes:
        off += static_cast<uint32_t>(item.bytes.size());
        break;
      case AsmItem::Kind::kBranch:
        if (item.branch_op == Op::kCall) {
          off += 5;
        } else {
          off += item.is_long ? 5 : 2;
        }
        break;
      case AsmItem::Kind::kAlign:
        off += (item.align - (off % item.align)) % item.align;
        break;
    }
  }
  offsets[section.items.size()] = off;
  return offsets;
}

ks::Status Assembler::Relax(AsmSection& section) {
  // Branches whose targets are not labels of this section always use the
  // long form with a relocation.
  for (AsmItem& item : section.items) {
    if (item.kind == AsmItem::Kind::kBranch &&
        section.labels.count(item.target) == 0) {
      item.is_long = true;
    }
  }
  for (int iteration = 0; iteration < 1000; ++iteration) {
    std::vector<uint32_t> offsets = ComputeOffsets(section);
    bool changed = false;
    for (size_t i = 0; i < section.items.size(); ++i) {
      AsmItem& item = section.items[i];
      if (item.kind != AsmItem::Kind::kBranch || item.is_long ||
          item.branch_op == Op::kCall) {
        continue;
      }
      auto label = section.labels.find(item.target);
      if (label == section.labels.end()) {
        continue;  // already forced long above
      }
      uint32_t target_off = offsets[label->second];
      int64_t disp = static_cast<int64_t>(target_off) -
                     (static_cast<int64_t>(offsets[i]) + 2);
      if (disp < -128 || disp > 127) {
        item.is_long = true;
        changed = true;
      }
    }
    if (!changed) {
      return ks::OkStatus();
    }
  }
  return ks::Internal("assembler relaxation did not converge");
}

ks::Status Assembler::MaterializeDeferredEntries() {
  for (const DeferredEntry& e : deferred_) {
    // Resolve the function and label offsets within the recorded text
    // section (never hold references across EnsureSection: it may grow
    // sections_).
    std::vector<uint32_t> offsets = ComputeOffsets(sections_[e.section]);
    auto resolve = [&](const std::string& label,
                       uint32_t* out) -> ks::Status {
      const AsmSection& text = sections_[e.section];
      auto it = text.labels.find(label);
      if (it == text.labels.end()) {
        return ks::InvalidArgument(ks::StrPrintf(
            "%s:%d: %s references unknown label '%s'", source_name_.c_str(),
            e.src_line,
            e.kind == DeferredEntry::Kind::kExtable ? ".extable_entry"
                                                    : ".bug_entry",
            label.c_str()));
      }
      *out = offsets[it->second];
      return ks::OkStatus();
    };
    uint32_t fn_off = 0;
    uint32_t site_off = 0;
    KS_RETURN_IF_ERROR(resolve(e.fn, &fn_off));
    KS_RETURN_IF_ERROR(resolve(e.label1, &site_off));

    bool extable = e.kind == DeferredEntry::Kind::kExtable;
    uint32_t aux = 0;
    if (extable) {
      KS_RETURN_IF_ERROR(resolve(e.label2, &aux));
    } else {
      aux = e.bug_line;
    }

    std::string table_name = (extable ? ".extable." : ".bug_table.") + e.fn;
    std::string table_sym = (extable ? "__extable_" : "__bug_table_") + e.fn;
    size_t idx = EnsureSection(table_name, SectionKind::kData, 4);
    AsmSection& table = sections_[idx];
    if (table.labels.count(table_sym) == 0) {
      table.labels.emplace(table_sym, 0);
      defined_.push_back(DefinedSym{table_sym, idx, 0});
    }
    AsmItem item;
    item.kind = AsmItem::Kind::kBytes;
    item.bytes.assign(8, 0);
    item.line = e.src_line;
    // Word 0: address of the faulting/trap instruction, as fn+offset so
    // the linker and the structural matcher see it under relocation.
    item.relocs.push_back(ItemReloc{
        0, e.fn, static_cast<int32_t>(site_off - fn_off), RelocType::kAbs32});
    if (extable) {
      // Word 1: the fixup landing pad, likewise fn-relative.
      item.relocs.push_back(ItemReloc{
          4, e.fn, static_cast<int32_t>(aux - fn_off), RelocType::kAbs32});
    } else {
      // Word 1: the source line, a plain literal (no relocation).
      ks::WriteLe32(item.bytes.data() + 4, aux);
    }
    table.items.push_back(std::move(item));
  }
  return ks::OkStatus();
}

ks::Result<ObjectFile> Assembler::Finish() {
  ObjectFile obj(source_name_);

  std::map<std::string, SymbolBinding> binding;
  for (const std::string& name : globals_) {
    binding[name] = SymbolBinding::kGlobal;
  }

  for (AsmSection& asec : sections_) {
    KS_RETURN_IF_ERROR(Relax(asec));
  }
  // Label offsets are final only now; turn deferred extable/bug-table
  // entries into per-function table sections before kelf emission.
  KS_RETURN_IF_ERROR(MaterializeDeferredEntries());

  // First create all symbols (so relocations can reference them), then emit
  // section payloads.
  std::map<std::string, int> symbol_index;  // defined symbols by name
  std::vector<int> section_index(sections_.size(), -1);

  // Create kelf sections.
  for (size_t si = 0; si < sections_.size(); ++si) {
    AsmSection& asec = sections_[si];
    std::vector<uint32_t> offsets = ComputeOffsets(asec);
    uint32_t total = offsets.back();
    bool last_chance = si + 1 == sections_.size() && obj.sections().empty();
    if (total == 0 && asec.items.empty() && asec.labels.empty() &&
        !last_chance) {
      // Drop empty unlabeled sections (e.g. the default .text when
      // function-sections moved every function elsewhere), but keep one so
      // trivially empty files still produce a well-formed object.
      continue;
    }
    Section sec;
    sec.name = asec.name;
    sec.kind = asec.kind;
    sec.howto = kelf::HowtoForSectionName(asec.name);
    sec.align = asec.align;
    if (asec.kind == SectionKind::kBss) {
      sec.bss_size = total;
    } else {
      sec.bytes.reserve(total);
    }
    section_index[si] = obj.AddSection(std::move(sec));
  }

  // Define symbols.
  for (const DefinedSym& def : defined_) {
    const AsmSection& asec = sections_[def.section];
    std::vector<uint32_t> offsets = ComputeOffsets(asec);
    if (section_index[def.section] < 0) {
      return ks::Internal("symbol defined in dropped section");
    }
    Symbol sym;
    sym.name = def.name;
    sym.binding = binding.count(def.name) != 0 ? SymbolBinding::kGlobal
                                               : SymbolBinding::kLocal;
    sym.kind = asec.kind == SectionKind::kText ? SymbolKind::kFunction
                                               : SymbolKind::kObject;
    sym.section = section_index[def.section];
    sym.value = offsets[def.position];
    if (symbol_index.count(def.name) != 0) {
      return ks::InvalidArgument(ks::StrPrintf(
          "%s: duplicate symbol '%s'", source_name_.c_str(),
          def.name.c_str()));
    }
    symbol_index[def.name] = obj.AddSymbol(std::move(sym));
  }

  // Emit payloads and relocations.
  auto reloc_symbol = [&](const std::string& name) -> int {
    auto it = symbol_index.find(name);
    if (it != symbol_index.end()) {
      return it->second;
    }
    return obj.InternUndefinedSymbol(name);
  };

  for (size_t si = 0; si < sections_.size(); ++si) {
    if (section_index[si] < 0) {
      continue;
    }
    AsmSection& asec = sections_[si];
    Section& sec = obj.sections()[static_cast<size_t>(section_index[si])];
    std::vector<uint32_t> offsets = ComputeOffsets(asec);
    if (asec.kind == SectionKind::kBss) {
      continue;  // size already recorded
    }
    for (size_t i = 0; i < asec.items.size(); ++i) {
      AsmItem& item = asec.items[i];
      uint32_t item_off = offsets[i];
      switch (item.kind) {
        case AsmItem::Kind::kBytes: {
          sec.bytes.insert(sec.bytes.end(), item.bytes.begin(),
                           item.bytes.end());
          for (const ItemReloc& r : item.relocs) {
            sec.relocs.push_back(kelf::Relocation{
                .offset = item_off + r.offset,
                .type = r.type,
                .symbol = reloc_symbol(r.symbol),
                .addend = r.addend,
            });
          }
          break;
        }
        case AsmItem::Kind::kBranch: {
          auto label = asec.labels.find(item.target);
          if (label != asec.labels.end()) {
            uint32_t target_off = offsets[label->second];
            Insn insn;
            uint32_t len = item.branch_op == Op::kCall ? 5
                           : item.is_long              ? 5
                                                       : 2;
            insn.op = item.branch_op == Op::kCall ? Op::kCall
                      : item.is_long ? item.branch_op
                                     : ShortForm(item.branch_op);
            insn.rel = static_cast<int32_t>(target_off) -
                       static_cast<int32_t>(item_off + len);
            std::vector<uint8_t> bytes = Encode(insn);
            sec.bytes.insert(sec.bytes.end(), bytes.begin(), bytes.end());
          } else {
            Insn insn;
            insn.op = item.branch_op;
            insn.rel = 0;
            std::vector<uint8_t> bytes = Encode(insn);
            uint32_t field = item_off + static_cast<uint32_t>(bytes.size()) - 4;
            sec.bytes.insert(sec.bytes.end(), bytes.begin(), bytes.end());
            sec.relocs.push_back(kelf::Relocation{
                .offset = field,
                .type = RelocType::kPcrel32,
                .symbol = reloc_symbol(item.target),
                .addend = -4,
            });
          }
          break;
        }
        case AsmItem::Kind::kAlign: {
          uint32_t pad =
              (item.align - (item_off % item.align)) % item.align;
          if (asec.kind == SectionKind::kText) {
            AppendNopFill(sec.bytes, pad);
          } else {
            sec.bytes.insert(sec.bytes.end(), pad, 0);
          }
          break;
        }
      }
    }
  }

  // Symbol sizes: distance to the next symbol in the same section, or to
  // the end of the section.
  for (kelf::Symbol& sym : obj.symbols()) {
    if (!sym.defined()) {
      continue;
    }
    const Section& sec = obj.sections()[static_cast<size_t>(sym.section)];
    uint32_t next = sec.size();
    for (const kelf::Symbol& other : obj.symbols()) {
      if (other.defined() && other.section == sym.section &&
          other.value > sym.value && other.value < next) {
        next = other.value;
      }
    }
    sym.size = next - sym.value;
  }

  KS_RETURN_IF_ERROR(obj.Validate());
  return obj;
}

}  // namespace

ks::Result<kelf::ObjectFile> Assemble(std::string_view source,
                                      std::string source_name,
                                      const AsmOptions& options) {
  Assembler assembler(std::move(source_name), options);
  return assembler.Run(source);
}

}  // namespace kvx
