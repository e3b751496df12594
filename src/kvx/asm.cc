#include "kvx/asm.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/endian.h"
#include "base/strings.h"

namespace kvx {

namespace {

using kelf::ObjectFile;
using kelf::RelocType;
using kelf::Section;
using kelf::SectionKind;
using kelf::Symbol;
using kelf::SymbolBinding;
using kelf::SymbolKind;
using Kind = Stmt::Kind;

// Text alignment before every function label (see the header comment).
constexpr uint32_t kFuncAlign = 8;

// The default section of each segment, indexed by Kind::kText/kData/kBss.
struct SegmentInfo {
  const char* section;
  SectionKind kind;
  uint32_t align;
};
constexpr SegmentInfo kSegments[] = {
    {".text", SectionKind::kText, kFuncAlign},
    {".data", SectionKind::kData, 4},
    {".bss", SectionKind::kBss, 4},
};

// A place in a section before relaxation: `at` fixed bytes and `item` item
// records precede it.
struct Pos {
  uint32_t at = 0;
  uint32_t item = 0;
};

// An item record: a part of a section whose bytes or offset are known only
// after relaxation. It sits just before the section's fixed byte `at`.
enum class ItemKind : uint8_t { kReloc, kBranch, kAlign };
struct AsmItem {
  ItemKind kind = ItemKind::kReloc;
  Op op = Op::kJmp32;    // kBranch: long form, or kCall
  bool is_long = false;  // kBranch relaxation state
  bool local = false;    // kBranch: `target` is a label of this section
  uint32_t at = 0;
  int32_t value = 0;     // kReloc: ABS32 addend; kAlign: alignment
  Pos target;            // kBranch, when local
  std::string symbol;    // kReloc: symbol; kBranch: target name
};

struct AsmSection {
  std::string name;
  SectionKind kind = SectionKind::kText;
  uint32_t align = 1;
  std::vector<uint8_t> bytes;  // every fixed byte (zeroes in .bss)
  std::vector<AsmItem> items;  // in `at` order
  std::unordered_map<std::string, Pos> labels;
  // Set by Layout: shift[k] is the size of the items before items[k].
  std::vector<uint32_t> shift;

  Pos Here() const {
    return {static_cast<uint32_t>(bytes.size()),
            static_cast<uint32_t>(items.size())};
  }
  uint32_t Offset(Pos pos) const { return pos.at + shift[pos.item]; }
};

struct DefinedSym {
  std::string name;
  size_t section = 0;  // index into sections vector
  Pos pos;
};

// A pending exception-table or bug-table entry. Entries reference local
// labels whose offsets are only known after branch relaxation, so the
// directives record them here and Finish() materializes the 8-byte entries
// (with ABS32 relocations against the enclosing function symbol) into a
// per-function `.extable.<fn>` / `.bug_table.<fn>` section.
struct DeferredEntry {
  Stmt stmt;
  size_t section = 0;  // text section holding fn and the labels
  int line = 0;        // for diagnostics
};

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '$';
}

// Sizes every item for the current branch forms.
void Layout(AsmSection& sec) {
  sec.shift.resize(sec.items.size() + 1);
  uint32_t extra = 0;
  for (size_t k = 0; k < sec.items.size(); ++k) {
    sec.shift[k] = extra;
    const AsmItem& item = sec.items[k];
    if (item.kind == ItemKind::kBranch) {
      extra += item.op == Op::kCall || item.is_long ? 5 : 2;
    } else if (item.kind == ItemKind::kAlign) {
      uint32_t align = static_cast<uint32_t>(item.value);
      extra += (align - (item.at + extra) % align) % align;
    }
  }
  sec.shift.back() = extra;
}

// Branches whose targets are not labels of the section always use the long
// form with a relocation; the others start short and are widened until
// every displacement fits. Leaves the section laid out.
ks::Status Relax(AsmSection& sec) {
  for (AsmItem& item : sec.items) {
    if (item.kind != ItemKind::kBranch) {
      continue;
    }
    auto label = sec.labels.find(item.symbol);
    item.local = label != sec.labels.end();
    if (item.local) {
      item.target = label->second;
    } else {
      item.is_long = true;
    }
  }
  for (int iteration = 0; iteration < 1000; ++iteration) {
    Layout(sec);
    bool changed = false;
    for (size_t k = 0; k < sec.items.size(); ++k) {
      AsmItem& item = sec.items[k];
      if (item.kind != ItemKind::kBranch || item.is_long ||
          item.op == Op::kCall) {
        continue;
      }
      int64_t disp = static_cast<int64_t>(sec.Offset(item.target)) -
                     (static_cast<int64_t>(item.at + sec.shift[k]) + 2);
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

// Appends an item record; a kReloc item relocates the field at `at`.
AsmItem& AddItem(AsmSection& sec, ItemKind kind, size_t at, int64_t value,
                 const std::string& symbol = "") {
  AsmItem& item = sec.items.emplace_back();
  item.kind = kind;
  item.at = static_cast<uint32_t>(at);
  item.value = static_cast<int32_t>(value);
  item.symbol = symbol;
  return item;
}

void AppendWord(std::vector<uint8_t>& bytes, uint32_t value) {
  bytes.resize(bytes.size() + 4);
  ks::WriteLe32(bytes.data() + bytes.size() - 4, value);
}

class Builder {
 public:
  Builder(std::string source_name, const AsmOptions& options)
      : source_name_(std::move(source_name)), options_(options) {
    EnsureSection(".text", SectionKind::kText, kFuncAlign);
  }

  // Adds one statement; error messages name line `line_number`.
  ks::Status Add(const Stmt& stmt);
  // The text front end: parses one line into statements.
  ks::Status ParseLine(std::string_view line);
  ks::Result<ObjectFile> Finish();

  int line_number = 0;

 private:
  ks::Status ParseDirective(std::span<const std::string_view> tokens);
  ks::Status ParseInstruction(std::span<const std::string_view> tokens);
  ks::Status DefineLabel(const std::string& name);

  AsmSection& Current() { return sections_[current_]; }
  size_t EnsureSection(const std::string& name, SectionKind kind,
                       uint32_t align);
  ks::Status MaterializeDeferredEntries();

  ks::Status Error(const std::string& message) const {
    return ks::InvalidArgument(ks::StrPrintf(
        "%s:%d: %s", source_name_.c_str(), line_number, message.c_str()));
  }

  std::string source_name_;
  AsmOptions options_;
  Kind segment_ = Kind::kText;
  std::vector<AsmSection> sections_;
  std::unordered_map<std::string, size_t> section_index_;
  size_t current_ = 0;
  std::vector<DefinedSym> defined_;
  std::unordered_set<std::string> globals_;
  std::vector<DeferredEntry> deferred_;
  // True while inside a `.howto_section`: labels define symbols in place
  // instead of splitting into fresh `.data.<name>` sections.
  bool custom_section_ = false;
};

size_t Builder::EnsureSection(const std::string& name, SectionKind kind,
                                uint32_t align) {
  auto [it, added] = section_index_.try_emplace(name, sections_.size());
  if (added) {
    AsmSection& sec = sections_.emplace_back();
    sec.name = name;
    sec.kind = kind;
    sec.align = align;
  }
  current_ = it->second;
  return current_;
}

ks::Status Builder::DefineLabel(const std::string& name) {
  if (name.empty() || !IsIdentChar(name[0])) {
    return Error(ks::StrPrintf("bad label '%s'", name.c_str()));
  }
  bool symbol = name[0] != '.';
  if (symbol && !custom_section_) {
    // A symbol definition. With function/data sections, it opens a fresh
    // section; otherwise we pad to the function/object alignment in place.
    const SegmentInfo& seg = kSegments[static_cast<int>(segment_)];
    bool split = segment_ == Kind::kText ? options_.function_sections
                                         : options_.data_sections;
    if (split) {
      EnsureSection(seg.section + ("." + name), seg.kind, seg.align);
    } else {
      KS_RETURN_IF_ERROR(Add(Stmt(Kind::kAlign, "", seg.align)));
    }
  }
  AsmSection& sec = Current();
  if (!sec.labels.emplace(name, sec.Here()).second) {
    return Error(ks::StrPrintf("duplicate label '%s'", name.c_str()));
  }
  if (symbol) {
    defined_.push_back(DefinedSym{name, current_, sec.Here()});
  }
  return ks::OkStatus();
}

ks::Status Builder::Add(const Stmt& stmt) {
  AsmSection& sec = Current();
  bool in_text = segment_ == Kind::kText && sec.kind == SectionKind::kText;
  auto not_in_bss = [&](const char* directive) {
    return segment_ == Kind::kBss
               ? Error(ks::StrPrintf("%s not allowed in .bss", directive))
               : ks::OkStatus();
  };
  switch (stmt.kind) {
    case Kind::kText:
    case Kind::kData:
    case Kind::kBss: {
      const SegmentInfo& seg = kSegments[static_cast<int>(stmt.kind)];
      segment_ = stmt.kind;
      custom_section_ = false;
      EnsureSection(seg.section, seg.kind, seg.align);
      return ks::OkStatus();
    }
    case Kind::kSection:
      segment_ = Kind::kData;
      EnsureSection(stmt.name, SectionKind::kData, 4);
      custom_section_ = true;
      return ks::OkStatus();
    case Kind::kGlobal:
      globals_.insert(stmt.name);
      return ks::OkStatus();
    case Kind::kLabel:
      return DefineLabel(stmt.name);
    case Kind::kInsn:
    case Kind::kBranch: {
      if (!in_text) {
        return Error("instructions are only allowed in .text");
      }
      size_t at = sec.bytes.size();
      if (stmt.kind == Kind::kBranch) {
        AddItem(sec, ItemKind::kBranch, at, 0, stmt.name).op = stmt.insn.op;
        return ks::OkStatus();
      }
      Encode(stmt.insn, sec.bytes);
      if (!stmt.name.empty()) {
        AddItem(sec, ItemKind::kReloc, at + Imm32FieldOffset(stmt.insn.op),
                stmt.value, stmt.name);
      }
      return ks::OkStatus();
    }
    case Kind::kAlign: {
      int64_t n = stmt.value;
      if (n < 1 || n > 4096 || (n & (n - 1)) != 0) {
        return Error(".align value must be a power of two in [1,4096]");
      }
      if (n > 1) {
        AddItem(sec, ItemKind::kAlign, sec.bytes.size(), n);
      }
      sec.align = std::max(sec.align, static_cast<uint32_t>(n));
      return ks::OkStatus();
    }
    case Kind::kWord:
      KS_RETURN_IF_ERROR(not_in_bss(".word"));
      if (!stmt.name.empty()) {
        AddItem(sec, ItemKind::kReloc, sec.bytes.size(), stmt.value,
                stmt.name);
      }
      AppendWord(sec.bytes,
                 stmt.name.empty() ? static_cast<uint32_t>(stmt.value) : 0);
      return ks::OkStatus();
    case Kind::kByte:
      KS_RETURN_IF_ERROR(not_in_bss(".byte"));
      sec.bytes.push_back(static_cast<uint8_t>(stmt.value));
      return ks::OkStatus();
    case Kind::kSpace:
      if (stmt.value < 0 || stmt.value > (1 << 24)) {
        return Error("bad .space size");
      }
      sec.bytes.resize(sec.bytes.size() + static_cast<size_t>(stmt.value));
      return ks::OkStatus();
    case Kind::kAsciz:
      KS_RETURN_IF_ERROR(not_in_bss(".asciz"));
      sec.bytes.insert(sec.bytes.end(), stmt.name.begin(), stmt.name.end());
      sec.bytes.push_back(0);
      return ks::OkStatus();
    case Kind::kHook: {
      size_t saved = current_;
      AsmSection& notes =
          sections_[EnsureSection(".ksplice." + stmt.args[0],
                                  SectionKind::kNote, 4)];
      AddItem(notes, ItemKind::kReloc, notes.bytes.size(), 0, stmt.name);
      AppendWord(notes.bytes, 0);
      current_ = saved;
      return ks::OkStatus();
    }
    case Kind::kExtable:
    case Kind::kBug:
      if (sec.kind != SectionKind::kText) {
        return Error(stmt.kind == Kind::kExtable
                         ? ".extable_entry is only allowed in text"
                         : ".bug_entry is only allowed in text");
      }
      deferred_.push_back(DeferredEntry{stmt, current_, line_number});
      return ks::OkStatus();
  }
  return Error("unknown statement");
}

// ------------------------------------------------------------------------
// Text front end

// Splits an assembly line into tokens; commas separate operands, quoted
// strings stay whole (including quotes).
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (c == ' ' || c == '\t' || c == ',') {
      ++i;
      continue;
    }
    size_t j = i + 1;
    if (c == '"') {
      while (j < line.size() && line[j] != '"') {
        j += line[j] == '\\' && j + 1 < line.size() ? 2 : 1;
      }
      j = std::min(j + 1, line.size());
    } else if (c != '[' && c != ']' && c != ':') {
      j = std::min(line.find_first_of(" \t,[]:", i), line.size());
    }
    tokens.push_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

std::optional<uint8_t> ParseRegister(std::string_view token) {
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

std::optional<int64_t> ParseNumber(std::string_view token) {
  bool negative = !token.empty() && token[0] == '-';
  if (negative) {
    token.remove_prefix(1);
  }
  int base = 10;
  if (token.size() > 2 && token[0] == '0' &&
      (token[1] == 'x' || token[1] == 'X')) {
    base = 16;
    token.remove_prefix(2);
  }
  if (token.empty()) {
    return std::nullopt;
  }
  uint64_t value = 0;  // an overlong literal wraps, as a 32-bit field does
  for (char c : token) {
    int digit = c >= '0' && c <= '9'   ? c - '0'
                : c >= 'a' && c <= 'f' ? c - 'a' + 10
                : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                       : base;
    if (digit >= base) {
      return std::nullopt;
    }
    value = value * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
  }
  return static_cast<int64_t>(negative ? 0 - value : value);
}

// Parses "name", "name+4", "name-4" into a statement's name and value.
bool ParseSymbolExpr(std::string_view token, Stmt& stmt) {
  if (token.empty() || !IsIdentChar(token[0]) ||
      (token[0] >= '0' && token[0] <= '9')) {
    return false;
  }
  size_t i = 0;
  while (i < token.size() && IsIdentChar(token[i])) {
    ++i;
  }
  stmt.name = std::string(token.substr(0, i));
  std::optional<int64_t> addend = 0;
  if (i < token.size()) {
    addend = token[i] == '+'   ? ParseNumber(token.substr(i + 1))
             : token[i] == '-' ? ParseNumber(token.substr(i))
                               : std::nullopt;
  }
  stmt.value = static_cast<int32_t>(addend.value_or(0));
  return addend.has_value();
}

// Hook kinds: `.ksplice_<kind> SYM` fills note section `.ksplice.<kind>`.
constexpr std::string_view kHookKinds[] = {
    "apply", "pre_apply", "post_apply", "reverse", "pre_reverse",
    "post_reverse",
};

ks::Status Builder::ParseLine(std::string_view line) {
  std::vector<std::string_view> tokens = Tokenize(line);
  // Labels: NAME : [rest...]
  size_t first = 0;
  while (tokens.size() - first >= 2 && tokens[first + 1] == ":") {
    KS_RETURN_IF_ERROR(DefineLabel(std::string(tokens[first])));
    first += 2;
  }
  std::span<const std::string_view> rest(tokens.data() + first,
                                         tokens.size() - first);
  if (rest.empty()) {
    return ks::OkStatus();
  }
  return rest[0][0] == '.' ? ParseDirective(rest) : ParseInstruction(rest);
}

ks::Status Builder::ParseDirective(std::span<const std::string_view> tokens) {
  std::string directive(tokens[0]);
  size_t argc = tokens.size() - 1;
  std::string arg = argc >= 1 ? std::string(tokens[1]) : "";
  static const std::map<std::string_view, Kind> kNoOperand = {
      {".text", Kind::kText}, {".data", Kind::kData}, {".bss", Kind::kBss}};
  auto plain = kNoOperand.find(directive);
  if (plain != kNoOperand.end()) {
    return Add(Stmt(plain->second));
  }
  if (directive == ".global") {
    if (argc != 1) {
      return Error(".global needs one symbol");
    }
    return Add(Stmt(Kind::kGlobal, arg));
  }
  if (directive == ".align" || directive == ".space") {
    bool align = directive == ".align";
    if (argc != 1) {
      return Error(align ? ".align needs a value" : ".space needs a size");
    }
    std::optional<int64_t> n = ParseNumber(arg);
    if (!n.has_value()) {
      return Error(align ? ".align value must be a power of two in [1,4096]"
                         : "bad .space size");
    }
    return Add(Stmt(align ? Kind::kAlign : Kind::kSpace, "", *n));
  }
  if (directive == ".word") {
    if (argc == 0) {
      return Error(".word needs at least one value");
    }
    for (std::string_view token : tokens.subspan(1)) {
      Stmt word(Kind::kWord);
      std::optional<int64_t> n = ParseNumber(token);
      if (n.has_value()) {
        word.value = *n;
      } else if (!ParseSymbolExpr(token, word)) {
        return Error(ks::StrPrintf("bad .word operand '%s'",
                                   std::string(token).c_str()));
      }
      KS_RETURN_IF_ERROR(Add(word));
    }
    return ks::OkStatus();
  }
  if (directive == ".byte") {
    for (std::string_view token : tokens.subspan(1)) {
      std::optional<int64_t> n = ParseNumber(token);
      if (!n.has_value() || *n < -128 || *n > 255) {
        return Error(ks::StrPrintf("bad .byte operand '%s'",
                                   std::string(token).c_str()));
      }
      KS_RETURN_IF_ERROR(Add(Stmt(Kind::kByte, "", *n)));
    }
    return ks::OkStatus();
  }
  if (directive == ".asciz") {
    if (argc != 1 || arg.size() < 2 || arg[0] != '"' || arg.back() != '"') {
      return Error(".asciz needs one quoted string");
    }
    Stmt str(Kind::kAsciz);
    for (size_t i = 1; i + 1 < arg.size(); ++i) {
      char c = arg[i];
      if (c == '\\' && i + 2 < arg.size()) {
        static constexpr std::string_view kEscapes = "n\nt\t\\\\\"\"";
        size_t e = kEscapes.find(arg[++i]);
        if (e == std::string_view::npos || e % 2 != 0) {
          return Error("bad escape in .asciz");
        }
        c = kEscapes[e + 1];
      }
      str.name.push_back(c);
    }
    return Add(str);
  }
  if (directive == ".howto_section") {
    // `.howto_section <name>`: switch to a literally-named data section
    // (e.g. `.rodata.date`); labels inside define symbols in place.
    if (argc != 1 || arg.empty() || arg[0] != '.') {
      return Error(".howto_section needs one section name");
    }
    return Add(Stmt(Kind::kSection, arg));
  }
  if (directive == ".extable_entry") {
    // `.extable_entry <fn>, <insn_label>, <fixup_label>` inside <fn>'s
    // text: records an exception-table pair; materialized after relaxation.
    if (argc != 3) {
      return Error(".extable_entry needs function, insn label, fixup label");
    }
    Stmt entry(Kind::kExtable, arg);
    entry.args = {std::string(tokens[2]), std::string(tokens[3])};
    return Add(entry);
  }
  if (directive == ".bug_entry") {
    // `.bug_entry <fn>, <trap_label>, <line>`: records a bug-table entry.
    if (argc != 3) {
      return Error(".bug_entry needs function, trap label, line number");
    }
    std::optional<int64_t> n = ParseNumber(tokens[3]);
    if (!n.has_value() || *n < 0 || *n > 0x7fffffff) {
      return Error(ks::StrPrintf("bad .bug_entry line '%s'",
                                 std::string(tokens[3]).c_str()));
    }
    Stmt entry(Kind::kBug, arg, *n);
    entry.args = {std::string(tokens[2])};
    return Add(entry);
  }
  std::string_view hook = tokens[0];
  if (hook.starts_with(".ksplice_") &&
      std::find(std::begin(kHookKinds), std::end(kHookKinds),
                hook.substr(9)) != std::end(kHookKinds)) {
    if (argc != 1) {
      return Error(ks::StrPrintf("%s needs one symbol", directive.c_str()));
    }
    Stmt entry(Kind::kHook, arg);
    entry.args = {std::string(hook.substr(9))};
    return Add(entry);
  }
  return Error(ks::StrPrintf("unknown directive '%s'", directive.c_str()));
}

ks::Status Builder::ParseInstruction(
    std::span<const std::string_view> tokens) {
  std::string mnemonic(tokens[0]);
  size_t argc = tokens.size() - 1;
  // The mnemonic's forms in the ISA table, indexed by whether the second
  // operand is a register. The multi-byte no-ops are alignment filler, not
  // instructions to write.
  std::optional<Op> forms[2];
  for (int code = 0; code < 256; ++code) {
    const OpInfo& info = GetOpInfo(static_cast<uint8_t>(code));
    if (info.mnemonic != nullptr && info.mnemonic == mnemonic &&
        (!info.is_nop || info.length == 1)) {
      forms[info.has_reg2] = static_cast<Op>(code);
    }
  }
  if (!forms[0].has_value() && !forms[1].has_value()) {
    return Error(ks::StrPrintf("unknown mnemonic '%s'", mnemonic.c_str()));
  }
  Stmt stmt;
  stmt.insn.op = forms[0].value_or(forms[1].value_or(Op::kHalt));
  const OpInfo& info = GetOpInfo(stmt.insn.op);
  if (IsPcRelative(stmt.insn.op)) {
    // Jumps and calls name a target; relaxation picks the jump's form.
    if (argc != 1) {
      return Error(ks::StrPrintf("%s needs one target", mnemonic.c_str()));
    }
    Stmt branch(Kind::kBranch, std::string(tokens[1]));
    branch.insn.op = LongForm(stmt.insn.op);
    return Add(branch);
  }

  // load rd, [ rs ]  /  store [ rd ], rs  (and the byte/faulting forms)
  if (IsMemLoad(stmt.insn.op) || IsMemStore(stmt.insn.op)) {
    bool load = IsMemLoad(stmt.insn.op);
    size_t open = load ? 2 : 1;
    if (argc != 4 || tokens[open] != "[" || tokens[open + 2] != "]") {
      return Error(ks::StrPrintf(
          load ? "%s needs 'rD, [rS]'" : "%s needs '[rD], rS'",
          mnemonic.c_str()));
    }
    std::optional<uint8_t> rd = ParseRegister(tokens[load ? 1 : 2]);
    std::optional<uint8_t> rs = ParseRegister(tokens[load ? 3 : 4]);
    if (!rd.has_value() || !rs.has_value()) {
      return Error(ks::StrPrintf("bad register in %s", mnemonic.c_str()));
    }
    stmt.insn.reg1 = *rd;
    stmt.insn.reg2 = *rs;
    return Add(stmt);
  }

  // Otherwise: an optional register, then a source that is a register or an
  // immediate (a number, or "=symbol[+off]" with mov). No operands: nop,
  // halt, ret, bug.
  bool has_source = info.has_reg2 || info.has_imm32 || info.has_imm8;
  size_t operands = (info.has_reg1 ? 1 : 0) + (has_source ? 1 : 0);
  if (operands == 0) {
    return Add(stmt);
  }
  if (argc != operands) {
    return Error(ks::StrPrintf("%s needs %zu operand%s", mnemonic.c_str(),
                               operands, operands == 1 ? "" : "s"));
  }
  if (info.has_reg1) {
    std::optional<uint8_t> rd = ParseRegister(tokens[1]);
    if (!rd.has_value()) {
      return Error(ks::StrPrintf("bad register '%s'",
                                 std::string(tokens[1]).c_str()));
    }
    stmt.insn.reg1 = *rd;
  }
  if (!has_source) {
    return Add(stmt);
  }
  std::string source(tokens[argc]);
  std::optional<uint8_t> rs = ParseRegister(source);
  if (rs.has_value() && forms[1].has_value()) {
    stmt.insn.op = *forms[1];
    stmt.insn.reg2 = *rs;
    return Add(stmt);
  }
  if (!forms[0].has_value()) {
    return Error(ks::StrPrintf("%s has no immediate form", mnemonic.c_str()));
  }
  stmt.insn.op = *forms[0];
  if (source[0] == '=') {
    // "=symbol[+off]" materializes an address with an ABS32 relocation.
    if (stmt.insn.op != Op::kMovRI) {
      return Error("address expressions only valid with mov");
    }
    if (!ParseSymbolExpr(tokens[argc].substr(1), stmt)) {
      return Error(
          ks::StrPrintf("bad address expression '%s'", source.c_str()));
    }
    return Add(stmt);
  }
  std::optional<int64_t> n = ParseNumber(source);
  if (!n.has_value() ||
      (GetOpInfo(stmt.insn.op).has_imm8 && (*n < 0 || *n > 255))) {
    return Error(ks::StrPrintf("bad operand '%s'", source.c_str()));
  }
  stmt.insn.imm = static_cast<uint32_t>(*n);
  return Add(stmt);
}

// ------------------------------------------------------------------------
// Final assembly

ks::Status Builder::MaterializeDeferredEntries() {
  for (const DeferredEntry& e : deferred_) {
    const Stmt& entry = e.stmt;
    bool extable = entry.kind == Kind::kExtable;
    // Offsets of the function, the faulting/trap site and the fixup.
    uint32_t offset[3] = {};
    for (size_t i = 0; i <= entry.args.size(); ++i) {
      const std::string& name = i == 0 ? entry.name : entry.args[i - 1];
      const AsmSection& text = sections_[e.section];
      auto it = text.labels.find(name);
      if (it == text.labels.end()) {
        return ks::InvalidArgument(ks::StrPrintf(
            "%s:%d: %s references unknown label '%s'", source_name_.c_str(),
            e.line, extable ? ".extable_entry" : ".bug_entry", name.c_str()));
      }
      offset[i] = text.Offset(it->second);
    }
    std::string table_name =
        (extable ? ".extable." : ".bug_table.") + entry.name;
    std::string table_sym =
        (extable ? "__extable_" : "__bug_table_") + entry.name;
    // Never hold references across EnsureSection: it may grow sections_.
    size_t idx = EnsureSection(table_name, SectionKind::kData, 4);
    AsmSection& table = sections_[idx];
    if (table.labels.emplace(table_sym, Pos{}).second) {
      defined_.push_back(DefinedSym{table_sym, idx, Pos{}});
    }
    // Word 0: address of the faulting/trap instruction, as fn+offset so
    // the linker and the structural matcher see it under relocation.
    AddItem(table, ItemKind::kReloc, table.bytes.size(),
            offset[1] - offset[0], entry.name);
    AppendWord(table.bytes, 0);
    if (extable) {
      // Word 1: the fixup landing pad, likewise fn-relative.
      AddItem(table, ItemKind::kReloc, table.bytes.size(),
              offset[2] - offset[0], entry.name);
      AppendWord(table.bytes, 0);
    } else {
      // Word 1: the source line, a plain literal (no relocation).
      AppendWord(table.bytes, static_cast<uint32_t>(entry.value));
    }
    Layout(table);
  }
  return ks::OkStatus();
}

ks::Result<ObjectFile> Builder::Finish() {
  for (AsmSection& asec : sections_) {
    KS_RETURN_IF_ERROR(Relax(asec));
  }
  // Label offsets are final only now; turn deferred extable/bug-table
  // entries into per-function table sections before kelf emission.
  KS_RETURN_IF_ERROR(MaterializeDeferredEntries());

  ObjectFile obj(source_name_);
  std::vector<int> section_index(sections_.size(), -1);
  for (size_t si = 0; si < sections_.size(); ++si) {
    const AsmSection& asec = sections_[si];
    uint32_t total = asec.Offset(asec.Here());
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

  // Define symbols first, so relocations can reference them.
  std::unordered_map<std::string, int> symbol_index;
  for (const DefinedSym& def : defined_) {
    const AsmSection& asec = sections_[def.section];
    if (section_index[def.section] < 0) {
      return ks::Internal("symbol defined in dropped section");
    }
    Symbol sym;
    sym.name = def.name;
    sym.binding = globals_.count(def.name) != 0 ? SymbolBinding::kGlobal
                                                : SymbolBinding::kLocal;
    sym.kind = asec.kind == SectionKind::kText ? SymbolKind::kFunction
                                               : SymbolKind::kObject;
    sym.section = section_index[def.section];
    sym.value = asec.Offset(def.pos);
    auto [it, added] = symbol_index.try_emplace(def.name, 0);
    if (!added) {
      return ks::InvalidArgument(ks::StrPrintf(
          "%s: duplicate symbol '%s'", source_name_.c_str(),
          def.name.c_str()));
    }
    it->second = obj.AddSymbol(std::move(sym));
  }
  auto reloc_symbol = [&](const std::string& name) {
    auto [it, added] = symbol_index.try_emplace(name, 0);
    if (added) {
      it->second = obj.InternUndefinedSymbol(name);
    }
    return it->second;
  };

  // Emit payloads: fixed bytes, with each item's bytes or relocation
  // spliced in at its final offset.
  for (size_t si = 0; si < sections_.size(); ++si) {
    const AsmSection& asec = sections_[si];
    if (section_index[si] < 0 || asec.kind == SectionKind::kBss) {
      continue;  // a .bss size is already recorded
    }
    Section& sec = obj.sections()[static_cast<size_t>(section_index[si])];
    std::vector<uint8_t>& out = sec.bytes;
    uint32_t copied = 0;
    for (size_t k = 0; k < asec.items.size(); ++k) {
      const AsmItem& item = asec.items[k];
      out.insert(out.end(), asec.bytes.begin() + copied,
                 asec.bytes.begin() + item.at);
      copied = item.at;
      uint32_t item_off = item.at + asec.shift[k];
      switch (item.kind) {
        case ItemKind::kReloc:
          sec.relocs.push_back(kelf::Relocation{
              .offset = item_off,
              .type = RelocType::kAbs32,
              .symbol = reloc_symbol(item.symbol),
              .addend = item.value,
          });
          break;
        case ItemKind::kBranch: {
          Insn insn;
          insn.op = item.op == Op::kCall || item.is_long ? item.op
                                                         : ShortForm(item.op);
          uint32_t end = item_off + GetOpInfo(insn.op).length;
          if (item.local) {
            insn.rel = static_cast<int32_t>(asec.Offset(item.target)) -
                       static_cast<int32_t>(end);
          } else {
            sec.relocs.push_back(kelf::Relocation{
                .offset = end - 4,
                .type = RelocType::kPcrel32,
                .symbol = reloc_symbol(item.symbol),
                .addend = -4,
            });
          }
          Encode(insn, out);
          break;
        }
        case ItemKind::kAlign: {
          uint32_t align = static_cast<uint32_t>(item.value);
          uint32_t pad = (align - item_off % align) % align;
          if (asec.kind == SectionKind::kText) {
            AppendNopFill(out, pad);
          } else {
            out.insert(out.end(), pad, 0);
          }
          break;
        }
      }
    }
    out.insert(out.end(), asec.bytes.begin() + copied, asec.bytes.end());
  }

  // Symbol sizes: distance to the next higher symbol in the same section,
  // or to the end of the section. One sorted pass.
  std::vector<kelf::Symbol>& symbols = obj.symbols();
  std::vector<size_t> order;
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (symbols[i].defined()) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::pair(symbols[a].section, symbols[a].value) <
           std::pair(symbols[b].section, symbols[b].value);
  });
  uint32_t next = 0;
  for (size_t i = order.size(); i-- > 0;) {
    kelf::Symbol& sym = symbols[order[i]];
    if (i + 1 == order.size() || symbols[order[i + 1]].section != sym.section) {
      next = obj.sections()[static_cast<size_t>(sym.section)].size();
    } else if (symbols[order[i + 1]].value > sym.value) {
      next = symbols[order[i + 1]].value;
    }
    sym.size = next - sym.value;
  }

  KS_RETURN_IF_ERROR(obj.Validate());
  return obj;
}

// ------------------------------------------------------------------------
// Listing

// The inverse of the .asciz escapes the text front end reads.
std::string EscapeAsciz(std::string_view content) {
  std::string escaped;
  for (char c : content) {
    const char* escape = c == '\n'   ? "\\n"
                         : c == '\t' ? "\\t"
                         : c == '"'  ? "\\\""
                         : c == '\\' ? "\\\\"
                                      : nullptr;
    escaped += escape != nullptr ? std::string_view(escape)
                                 : std::string_view(&c, 1);
  }
  return escaped;
}

std::string RegName(uint8_t reg) {
  return reg == kRegFp   ? "fp"
         : reg == kRegSp ? "sp"
                         : "r" + std::to_string(reg);
}

std::string SymbolExpr(const Stmt& stmt) {
  return stmt.name + (stmt.value > 0 ? "+" : "") +
         (stmt.value != 0 ? std::to_string(stmt.value) : "");
}

std::string PrintInsn(const Stmt& stmt) {
  const Insn& insn = stmt.insn;
  const OpInfo& info = GetOpInfo(insn.op);
  std::string out = info.mnemonic;
  if (stmt.kind == Kind::kBranch) {
    return out + " " + stmt.name;
  }
  if (IsMemLoad(insn.op)) {
    return out + " " + RegName(insn.reg1) + ", [" + RegName(insn.reg2) + "]";
  }
  if (IsMemStore(insn.op)) {
    return out + " [" + RegName(insn.reg1) + "], " + RegName(insn.reg2);
  }
  std::vector<std::string> operands;
  if (info.has_reg1) {
    operands.push_back(RegName(insn.reg1));
  }
  if (info.has_reg2) {
    operands.push_back(RegName(insn.reg2));
  }
  if (info.has_imm32) {
    operands.push_back(stmt.name.empty()
                           ? std::to_string(static_cast<int32_t>(insn.imm))
                           : "=" + SymbolExpr(stmt));
  }
  if (info.has_imm8) {
    operands.push_back(std::to_string(insn.imm));
  }
  return operands.empty() ? out : out + " " + ks::Join(operands, ", ");
}

}  // namespace

class Assembler::Impl : public Builder {
 public:
  using Builder::Builder;
  ks::Status status;  // the first error
};

Assembler::Assembler(std::string source_name, const AsmOptions& options)
    : impl_(std::make_unique<Impl>(std::move(source_name), options)) {}

Assembler::~Assembler() = default;

void Assembler::Add(std::span<const Stmt> program) {
  for (size_t i = 0; i < program.size() && impl_->status.ok(); ++i) {
    ++impl_->line_number;
    impl_->status = impl_->Add(program[i]);
  }
}

ks::Result<kelf::ObjectFile> Assembler::Finish() {
  KS_RETURN_IF_ERROR(impl_->status);
  return impl_->Finish();
}

ks::Result<kelf::ObjectFile> Assemble(std::string_view source,
                                      std::string source_name,
                                      const AsmOptions& options) {
  Builder assembler(std::move(source_name), options);
  for (const std::string& raw_line : ks::SplitLines(source)) {
    ++assembler.line_number;
    std::string_view line = raw_line;
    // A ';' or '#' after the line's first quote counts as string text.
    size_t comment = line.find_first_of(";#");
    if (comment < line.find('"')) {
      line = line.substr(0, comment);
    }
    KS_RETURN_IF_ERROR(assembler.ParseLine(ks::Trim(line)));
  }
  return assembler.Finish();
}

std::string Print(std::span<const Stmt> program) {
  std::string out;
  for (const Stmt& stmt : program) {
    switch (stmt.kind) {
      case Kind::kText:
      case Kind::kData:
      case Kind::kBss:
        out += kSegments[static_cast<int>(stmt.kind)].section;
        break;
      case Kind::kSection:
        out += ".howto_section " + stmt.name;
        break;
      case Kind::kGlobal:
        out += ".global " + stmt.name;
        break;
      case Kind::kLabel:
        out += stmt.name + ":";
        break;
      case Kind::kHook:
        out += ".ksplice_" + stmt.args[0] + " " + stmt.name;
        break;
      case Kind::kInsn:
      case Kind::kBranch:
        out += "    " + PrintInsn(stmt);
        break;
      case Kind::kAlign:
        out += "    .align " + std::to_string(stmt.value);
        break;
      case Kind::kWord:
        out += "    .word " + (stmt.name.empty() ? std::to_string(stmt.value)
                                                 : SymbolExpr(stmt));
        break;
      case Kind::kByte:
        out += "    .byte " + std::to_string(stmt.value);
        break;
      case Kind::kSpace:
        out += "    .space " + std::to_string(stmt.value);
        break;
      case Kind::kAsciz:
        out += "    .asciz \"" + EscapeAsciz(stmt.name) + "\"";
        break;
      case Kind::kExtable:
        out += "    .extable_entry " + stmt.name + ", " +
               ks::Join(stmt.args, ", ");
        break;
      case Kind::kBug:
        out += "    .bug_entry " + stmt.name + ", " + stmt.args[0] + ", " +
               std::to_string(stmt.value);
        break;
    }
    out += '\n';
  }
  return out;
}

}  // namespace kvx
