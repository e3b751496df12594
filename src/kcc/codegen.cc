#include "kcc/codegen.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <vector>

#include "base/hash.h"
#include "base/strings.h"

namespace kcc {

namespace {

using kvx::Op;
using Kind = kvx::Stmt::Kind;

// Register operands.
enum Reg : uint8_t { R0, R1, R2, R3, FP = kvx::kRegFp, SP = kvx::kRegSp };

// For "%s" in diagnostics.
std::string Str(std::string_view text) { return std::string(text); }

// ------------------------------------------------------------------------
// Builtins lowered to SYS instructions (see kvx::Sys).

struct Builtin {
  std::string_view name;
  int sys = -1;  // SYS number; -1 for `invoke`
  int arity = 0;
};

constexpr Builtin kBuiltins[] = {
    {"printk", 0, 1},      {"ticks", 1, 0},          {"yield", 2, 0},
    {"sleep", 3, 1},       {"tid", 4, 0},            {"krand", 5, 0},
    {"exit_thread", 6, 0}, {"record", 7, 2},         {"kthread", 8, 2},
    {"lock_kernel", 9, 0}, {"unlock_kernel", 10, 0}, {"shadow_attach", 11, 3},
    {"shadow_get", 12, 2}, {"shadow_detach", 13, 2}, {"kmalloc", 14, 1},
    {"kfree", 15, 1},      {"invoke", -1, -1},
};

const Builtin* FindBuiltin(std::string_view name) {
  auto it = std::ranges::find(kBuiltins, name, &Builtin::name);
  return it == std::end(kBuiltins) ? nullptr : it;
}

// Opens `symbol` in `segment` (a segment or section switch): the
// statements that precede its data.
void OpenData(std::vector<kvx::Stmt>& out, kvx::Stmt segment,
              std::string_view symbol, bool global = false) {
  out.push_back(std::move(segment));
  if (global) {
    out.emplace_back(Kind::kGlobal, Str(symbol));
  }
  out.emplace_back(Kind::kLabel, Str(symbol));
}

// ------------------------------------------------------------------------
// Struct layout

struct FieldLayout {
  int owner = 0;  // Type::struct_index
  std::string_view name;
  const Type* type = nullptr;
  int offset = 0;
};

struct StructLayout {
  int size = 0;
  int align = 1;
};

// ------------------------------------------------------------------------
// Value categories

struct Value {
  const Type* type;
};

struct LocalInfo {
  const Type* type = nullptr;
  int fp_offset = 0;        // negative: locals; positive: parameters
  std::string_view symbol;  // non-empty for static locals (data symbol)
};

// A function name's declarations in the unit.
struct Callee {
  const FuncDecl* first = nullptr;       // the first prototype or definition
  const FuncDecl* definition = nullptr;  // the first definition
};

class Codegen {
 public:
  Codegen(const Unit& unit, const CompileOptions& options,
          const StmtSink& sink)
      : unit_(unit), options_(options), sink_(sink) {}

  ks::Status Run();

  const std::pmr::set<std::string_view>& inlined_functions() const {
    return inlined_functions_;
  }

 private:
  // Setup ---------------------------------------------------------------
  ks::Status BuildStructTable();
  ks::Status BuildSymbolTables();
  ks::Result<int> SizeOf(const Type* type, int line) const;
  ks::Result<int> AlignOf(const Type* type, int line) const;
  ks::Result<const StructLayout*> LayoutOf(const Type* type, int line) const;
  const FieldLayout* FindField(int owner, std::string_view name) const {
    auto it = std::ranges::find_if(fields_, [&](const FieldLayout& field) {
      return field.owner == owner && field.name == name;
    });
    return it == fields_.end() ? nullptr : &*it;
  }

  ks::Status Error(int line, const std::string& message) const {
    return ks::InvalidArgument(ks::StrPrintf("%s:%d: %s", unit_.name.c_str(),
                                             line, message.c_str()));
  }
  // A copy of `text` that lives as long as the generator.
  std::string_view Keep(std::string_view text) {
    char* out = static_cast<char*>(scratch_.allocate(text.size(), 1));
    return {out, text.copy(out, text.size())};
  }

  // Emission: code goes to text_ ---------------------------------------
  kvx::Stmt& Emit(Op op, uint8_t reg1 = 0, uint8_t reg2 = 0) {
    kvx::Stmt& stmt = text_.emplace_back();
    stmt.insn.op = op;
    stmt.insn.reg1 = reg1;
    stmt.insn.reg2 = reg2;
    return stmt;
  }
  void EmitImm(Op op, uint8_t reg, int32_t imm) {
    Emit(op, reg).insn.imm = static_cast<uint32_t>(imm);
  }
  // mov reg, =symbol
  void EmitAddrOf(uint8_t reg, std::string_view symbol) {
    Emit(Op::kMovRI, reg).name = symbol;
  }
  void EmitBranch(Op op, std::string_view target) {
    kvx::Stmt& stmt = Emit(op);
    stmt.kind = Kind::kBranch;
    stmt.name = target;
  }
  void EmitLabel(std::string label) {
    text_.emplace_back(Kind::kLabel, std::move(label));
  }
  std::string NewLabel() { return ".L" + std::to_string(label_counter_++); }

  // Functions -----------------------------------------------------------
  ks::Status EmitFunction(const FuncDecl& fn);
  bool IsInlinable(const FuncDecl& fn) const {
    return fn.is_definition && options_.inline_threshold > 0 &&
           fn.body_size <= options_.inline_threshold &&
           !fn.has_static_local && !fn.is_recursive;
  }
  const FuncDecl* FindDefinition(std::string_view name) const {
    auto it = callees_.find(name);
    return it == callees_.end() ? nullptr : it->second.definition;
  }
  const FuncDecl* FindSignature(std::string_view name) const {
    auto it = callees_.find(name);
    return it == callees_.end()              ? nullptr
           : it->second.definition != nullptr ? it->second.definition
                                              : it->second.first;
  }
  // The local `expr` names, or null. An inline expansion's slots follow
  // its caller's in locals_, from slot_base_.
  const LocalInfo* LocalOf(const Expr& expr) const {
    return expr.slot < 0 ? nullptr : &locals_[slot_base_ + expr.slot];
  }
  int AllocSlot(int size);

  struct LoopLabels {
    std::string break_label;
    std::string continue_label;
  };

  ks::Status EmitStmt(const Stmt& stmt);
  ks::Status EmitLocalDecl(const Stmt& stmt);

  // Expressions: EmitExpr leaves an rvalue in r0 (arrays/structs decay to
  // their address); EmitAddr leaves an lvalue address in r0.
  ks::Result<Value> EmitExpr(const Expr& expr);
  ks::Result<Value> EmitAddr(const Expr& expr);
  ks::Result<Value> EmitCall(const Expr& expr);
  ks::Result<Value> EmitInlineCall(const FuncDecl& callee, const Expr& expr);
  ks::Status EmitArgsToRegs(const Expr& expr, int arity);
  ks::Result<Value> EmitBinary(const Expr& expr);
  ks::Status EmitCompareSet(Tok op);

  // Loads the scalar at address r0 with the width of `type`.
  ks::Status EmitLoad(const Type* type, int line);
  // Stores r0 to address r1 with the width of `type`.
  void EmitStore(const Type* type);
  // Converts r0 from `from` to `to` (mask for char narrowing).
  void EmitConvert(const Type* from, const Type* to);

  // Decay: arrays yield their address as a pointer value.
  const Type* Decay(const Type* type) {
    return type->IsArray() ? types_.PointerTo(type->pointee) : type;
  }
  const Type* CharPointer() { return types_.PointerTo(TypeTable::Char()); }

  // Data ----------------------------------------------------------------
  ks::Status EmitGlobal(const GlobalDecl& decl);
  std::string_view InternString(std::string_view value);
  std::string InternBuildString(bool date);
  ks::Status EmitStaticLocalData(std::string_view symbol, const Type* type,
                                 const Expr* init, int line);

  const Unit& unit_;
  const CompileOptions& options_;
  const StmtSink& sink_;
  TypeTable& types_ = unit_.types();

  // The generator's own tables live in scratch_, which starts in a buffer
  // inside the generator and is freed with it.
  std::array<std::byte, 4096> scratch_buffer_;
  std::pmr::monotonic_buffer_resource scratch_{scratch_buffer_.data(),
                                               scratch_buffer_.size()};
  std::pmr::vector<StructLayout> layouts_{&scratch_};  // by struct_index
  std::pmr::vector<FieldLayout> fields_{&scratch_};
  std::pmr::map<std::string_view, const GlobalDecl*> globals_{&scratch_};
  std::pmr::map<std::string_view, Callee> callees_{&scratch_};
  std::pmr::map<std::string_view, int> static_ordinal_{&scratch_};

  // Output in the order it is emitted: each function's text as soon as the
  // function is complete, then static locals' data, other data and hook
  // directives, which are buffered to the end.
  std::vector<kvx::Stmt> text_;
  std::vector<kvx::Stmt> static_data_;
  std::vector<kvx::Stmt> data_;
  std::vector<kvx::Stmt> hooks_;
  // String literals: content -> symbol.
  std::pmr::map<std::string_view, std::string_view> strings_{&scratch_};
  // __DATE__/__TIME__ symbols; empty until first use. Hash-suffixed with
  // the unit name so every unit's build strings are distinct symbols (a
  // content-ignoring matcher could never disambiguate same-named ones).
  std::string date_symbol_;
  std::string time_symbol_;

  int label_counter_ = 0;
  int frame_size_ = 0;

  std::pmr::vector<LocalInfo> locals_{&scratch_};  // by slot, per expansion
  size_t slot_base_ = 0;
  std::vector<LoopLabels> loops_;
  // The functions being expanded, outermost first.
  std::pmr::vector<std::string_view> inline_stack_{&scratch_};
  std::string return_label_;
  const Type* return_type_ = nullptr;
  std::pmr::set<std::string_view> inlined_functions_{&scratch_};
};

ks::Status Codegen::BuildStructTable() {
  // A struct is laid out after the ones defined before it, so a field of
  // a struct type defined later, or of its own, is unknown.
  for (const StructDef& def : unit_.structs) {
    const int owner = static_cast<int>(layouts_.size());
    StructLayout layout;
    int offset = 0;
    for (const Declarator& field : def.fields) {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(field.type, def.line));
      KS_ASSIGN_OR_RETURN(int align, AlignOf(field.type, def.line));
      offset = (offset + align - 1) / align * align;
      if (FindField(owner, field.name) != nullptr) {
        return Error(def.line, ks::StrPrintf("duplicate field '%s'",
                                             Str(field.name).c_str()));
      }
      fields_.push_back(FieldLayout{owner, field.name, field.type, offset});
      offset += size;
      layout.align = std::max(layout.align, align);
    }
    layout.size = (offset + layout.align - 1) / layout.align * layout.align;
    layouts_.push_back(layout);
  }
  return ks::OkStatus();
}

ks::Result<int> Codegen::SizeOf(const Type* type, int line) const {
  switch (type->kind) {
    case Type::Kind::kVoid:
      return Error(line, "sizeof(void)");
    case Type::Kind::kChar:
      return 1;
    case Type::Kind::kInt:
    case Type::Kind::kPointer:
      return 4;
    case Type::Kind::kArray: {
      KS_ASSIGN_OR_RETURN(int elem, SizeOf(type->pointee, line));
      return elem * type->array_len;
    }
    case Type::Kind::kStruct: {
      KS_ASSIGN_OR_RETURN(const StructLayout* layout, LayoutOf(type, line));
      return layout->size;
    }
  }
  return Error(line, "unsizeable type");
}

ks::Result<int> Codegen::AlignOf(const Type* type, int line) const {
  switch (type->kind) {
    case Type::Kind::kChar:
      return 1;
    case Type::Kind::kArray:
      return AlignOf(type->pointee, line);
    case Type::Kind::kStruct: {
      KS_ASSIGN_OR_RETURN(const StructLayout* layout, LayoutOf(type, line));
      return layout->align;
    }
    default:
      return 4;
  }
}

ks::Result<const StructLayout*> Codegen::LayoutOf(const Type* type,
                                                  int line) const {
  if (type->struct_index < 0 ||
      static_cast<size_t>(type->struct_index) >= layouts_.size()) {
    return Error(line, ks::StrPrintf("unknown struct '%s'",
                                     Str(type->struct_name).c_str()));
  }
  return &layouts_[static_cast<size_t>(type->struct_index)];
}

ks::Status Codegen::BuildSymbolTables() {
  for (const GlobalDecl& decl : unit_.globals) {
    if (!globals_.emplace(decl.name, &decl).second) {
      return Error(decl.line, ks::StrPrintf("duplicate global '%s'",
                                            Str(decl.name).c_str()));
    }
  }
  for (const FuncDecl& fn : unit_.functions) {
    Callee& callee = callees_[fn.name];
    if (callee.first == nullptr) {
      callee.first = &fn;
    }
    if (callee.definition == nullptr && fn.is_definition) {
      callee.definition = &fn;
    }
  }
  return ks::OkStatus();
}

int Codegen::AllocSlot(int size) {
  size = (size + 3) / 4 * 4;
  frame_size_ += size;
  return -frame_size_;
}

// --------------------------------------------------------------------------
// Functions

ks::Status Codegen::Run() {
  KS_RETURN_IF_ERROR(BuildStructTable());
  KS_RETURN_IF_ERROR(BuildSymbolTables());

  // Hooks reference functions; validate and emit directives.
  for (const KspliceHook& hook : unit_.hooks) {
    if (FindDefinition(hook.func) == nullptr) {
      return Error(hook.line,
                   ks::StrPrintf("ksplice_%s names undefined function '%s'",
                                 Str(hook.kind).c_str(),
                                 Str(hook.func).c_str()));
    }
    hooks_.emplace_back(Kind::kHook, Str(hook.func)).args = {Str(hook.kind)};
  }

  text_.reserve(256);
  text_.emplace_back(Kind::kText);
  for (const FuncDecl& fn : unit_.functions) {
    if (!fn.is_definition) {
      continue;
    }
    KS_RETURN_IF_ERROR(EmitFunction(fn));
    sink_(text_);
    text_.clear();
  }

  for (const GlobalDecl& decl : unit_.globals) {
    KS_RETURN_IF_ERROR(EmitGlobal(decl));
  }

  // String literals, in deterministic (sorted-by-symbol) order.
  std::pmr::map<std::string_view, std::string_view> by_symbol(&scratch_);
  for (const auto& [content, symbol] : strings_) {
    by_symbol[symbol] = content;
  }
  for (const auto& [symbol, content] : by_symbol) {
    OpenData(data_, kvx::Stmt(Kind::kData), symbol);
    data_.emplace_back(Kind::kAsciz, Str(content));
  }

  // Build-timestamp strings, each in its own howto-tagged section.
  if (!date_symbol_.empty()) {
    OpenData(data_, kvx::Stmt(Kind::kSection, ".rodata.date"), date_symbol_);
    data_.emplace_back(Kind::kAsciz, options_.build_date);
  }
  if (!time_symbol_.empty()) {
    OpenData(data_, kvx::Stmt(Kind::kSection, ".rodata.time"), time_symbol_);
    data_.emplace_back(Kind::kAsciz, options_.build_time);
  }

  for (const std::vector<kvx::Stmt>* part :
       {&text_, &static_data_, &data_, &hooks_}) {
    sink_(*part);
  }
  return ks::OkStatus();
}

ks::Status Codegen::EmitFunction(const FuncDecl& fn) {
  size_t start = text_.size();
  frame_size_ = 0;
  locals_.assign(static_cast<size_t>(fn.slots), LocalInfo{});
  slot_base_ = 0;
  loops_.clear();
  inline_stack_.clear();
  inline_stack_.push_back(fn.name);
  return_label_ = NewLabel();
  return_type_ = fn.ret;

  int offset = 8;  // [fp]=saved fp, [fp+4]=return address
  for (size_t i = 0; i < fn.params.size(); ++i) {
    const Declarator& param = fn.params[i];
    if (param.name.empty()) {
      return Error(fn.line, "definition with unnamed parameter");
    }
    if (!param.type->IsScalar()) {
      return Error(fn.line, ks::StrPrintf("parameter '%s' must be scalar",
                                          Str(param.name).c_str()));
    }
    locals_[i] = LocalInfo{param.type, offset, {}};
    offset += 4;
  }

  KS_RETURN_IF_ERROR(EmitStmt(*fn.body));
  EmitLabel(return_label_);
  Emit(Op::kMovRR, SP, FP);
  Emit(Op::kPop, FP);
  Emit(Op::kRet);

  // The prologue needs the frame size, known only now: emit it last, then
  // rotate it in front of the body.
  size_t end = text_.size();
  if (!fn.is_static) {
    text_.emplace_back(Kind::kGlobal, Str(fn.name));
  }
  EmitLabel(Str(fn.name));
  Emit(Op::kPush, FP);
  Emit(Op::kMovRR, FP, SP);
  if (frame_size_ > 0) {
    EmitImm(Op::kSubRI, SP, frame_size_);
  }
  std::rotate(text_.begin() + static_cast<long>(start),
              text_.begin() + static_cast<long>(end), text_.end());
  return ks::OkStatus();
}

// --------------------------------------------------------------------------
// Statements

ks::Status Codegen::EmitStmt(const Stmt& stmt) {
  switch (stmt.kind) {
    case Stmt::Kind::kEmpty:
      return ks::OkStatus();
    case Stmt::Kind::kExpr:
      return EmitExpr(*stmt.expr).status();
    case Stmt::Kind::kDecl:
      return EmitLocalDecl(stmt);
    case Stmt::Kind::kBlock: {
      for (const Stmt* child : stmt.stmts) {
        KS_RETURN_IF_ERROR(EmitStmt(*child));
      }
      return ks::OkStatus();
    }
    case Stmt::Kind::kIf: {
      std::string else_label = NewLabel();
      KS_RETURN_IF_ERROR(EmitExpr(*stmt.cond).status());
      EmitImm(Op::kCmpRI, R0, 0);
      EmitBranch(Op::kJz32, else_label);
      KS_RETURN_IF_ERROR(EmitStmt(*stmt.then_body));
      if (stmt.else_body != nullptr) {
        std::string end_label = NewLabel();
        EmitBranch(Op::kJmp32, end_label);
        EmitLabel(else_label);
        KS_RETURN_IF_ERROR(EmitStmt(*stmt.else_body));
        EmitLabel(end_label);
      } else {
        EmitLabel(else_label);
      }
      return ks::OkStatus();
    }
    case Stmt::Kind::kWhile: {
      std::string head = NewLabel();
      std::string end = NewLabel();
      EmitLabel(head);
      KS_RETURN_IF_ERROR(EmitExpr(*stmt.cond).status());
      EmitImm(Op::kCmpRI, R0, 0);
      EmitBranch(Op::kJz32, end);
      loops_.push_back(LoopLabels{end, head});
      KS_RETURN_IF_ERROR(EmitStmt(*stmt.body));
      loops_.pop_back();
      EmitBranch(Op::kJmp32, head);
      EmitLabel(end);
      return ks::OkStatus();
    }
    case Stmt::Kind::kFor: {
      if (stmt.init_stmt != nullptr) {
        KS_RETURN_IF_ERROR(EmitStmt(*stmt.init_stmt));
      }
      std::string head = NewLabel();
      std::string step_label = NewLabel();
      std::string end = NewLabel();
      EmitLabel(head);
      if (stmt.cond != nullptr) {
        KS_RETURN_IF_ERROR(EmitExpr(*stmt.cond).status());
        EmitImm(Op::kCmpRI, R0, 0);
        EmitBranch(Op::kJz32, end);
      }
      loops_.push_back(LoopLabels{end, step_label});
      KS_RETURN_IF_ERROR(EmitStmt(*stmt.body));
      loops_.pop_back();
      EmitLabel(step_label);
      if (stmt.step != nullptr) {
        KS_RETURN_IF_ERROR(EmitExpr(*stmt.step).status());
      }
      EmitBranch(Op::kJmp32, head);
      EmitLabel(end);
      return ks::OkStatus();
    }
    case Stmt::Kind::kReturn: {
      if (stmt.expr != nullptr) {
        KS_ASSIGN_OR_RETURN(Value value, EmitExpr(*stmt.expr));
        EmitConvert(value.type, return_type_);
      }
      EmitBranch(Op::kJmp32, return_label_);
      return ks::OkStatus();
    }
    case Stmt::Kind::kBreak:
    case Stmt::Kind::kContinue: {
      const bool is_break = stmt.kind == Stmt::Kind::kBreak;
      if (loops_.empty()) {
        return Error(stmt.line, is_break ? "break outside loop"
                                         : "continue outside loop");
      }
      EmitBranch(Op::kJmp32, is_break ? loops_.back().break_label
                                      : loops_.back().continue_label);
      return ks::OkStatus();
    }
  }
  return Error(stmt.line, "unhandled statement");
}

ks::Status Codegen::EmitLocalDecl(const Stmt& stmt) {
  if (stmt.redeclares) {
    return Error(stmt.line, ks::StrPrintf("duplicate local '%s'",
                                          Str(stmt.decl_name).c_str()));
  }
  const size_t slot = slot_base_ + static_cast<size_t>(stmt.slot);
  if (stmt.is_static_local) {
    int ordinal = ++static_ordinal_[stmt.decl_name];
    std::string_view symbol = Keep(ks::StrPrintf(
        "%s.%d", Str(stmt.decl_name).c_str(), ordinal));
    KS_RETURN_IF_ERROR(
        EmitStaticLocalData(symbol, stmt.decl_type, stmt.init, stmt.line));
    locals_[slot] = LocalInfo{stmt.decl_type, 0, symbol};
    return ks::OkStatus();
  }
  KS_ASSIGN_OR_RETURN(int size, SizeOf(stmt.decl_type, stmt.line));
  int fp_offset = AllocSlot(size);
  locals_[slot] = LocalInfo{stmt.decl_type, fp_offset, {}};
  if (stmt.init != nullptr) {
    if (!stmt.decl_type->IsScalar()) {
      return Error(stmt.line, "initializer on non-scalar local");
    }
    KS_ASSIGN_OR_RETURN(Value value, EmitExpr(*stmt.init));
    EmitConvert(value.type, stmt.decl_type);
    Emit(Op::kMovRR, R1, FP);
    EmitImm(Op::kAddRI, R1, fp_offset);
    EmitStore(stmt.decl_type);
  }
  return ks::OkStatus();
}

ks::Status Codegen::EmitStaticLocalData(std::string_view symbol,
                                        const Type* type, const Expr* init,
                                        int line) {
  KS_ASSIGN_OR_RETURN(int size, SizeOf(type, line));
  if (init == nullptr) {
    OpenData(static_data_, kvx::Stmt(Kind::kBss), symbol);
    static_data_.emplace_back(Kind::kSpace, "", size);
    return ks::OkStatus();
  }
  if (init->kind != Expr::Kind::kIntLit) {
    return Error(line, "static local initializer must be constant");
  }
  if (!type->IsScalar()) {
    return Error(line, "static local aggregate initializer unsupported");
  }
  OpenData(static_data_, kvx::Stmt(Kind::kData), symbol);
  if (type->IsChar()) {
    static_data_.emplace_back(Kind::kByte, "", init->int_value & 0xff);
  } else {
    static_data_.emplace_back(Kind::kWord, "",
                              static_cast<int32_t>(init->int_value));
  }
  return ks::OkStatus();
}

// --------------------------------------------------------------------------
// Expressions

ks::Status Codegen::EmitLoad(const Type* type, int line) {
  if (type->IsArray() || type->IsStruct()) {
    return ks::OkStatus();  // decays to address
  }
  if (type->kind == Type::Kind::kVoid) {
    return Error(line, "load of void");
  }
  Emit(type->IsChar() ? Op::kLoadBI : Op::kLoadI, R0, R0);
  return ks::OkStatus();
}

void Codegen::EmitStore(const Type* type) {
  Emit(type->IsChar() ? Op::kStoreBI : Op::kStoreI, R1, R0);
}

void Codegen::EmitConvert(const Type* from, const Type* to) {
  if (to->IsChar() && !from->IsChar()) {
    EmitImm(Op::kAndRI, R0, 255);
  }
}

ks::Result<Value> Codegen::EmitAddr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kVar: {
      if (const LocalInfo* local = LocalOf(expr)) {
        if (!local->symbol.empty()) {
          EmitAddrOf(R0, local->symbol);
        } else {
          Emit(Op::kMovRR, R0, FP);
          EmitImm(Op::kAddRI, R0, local->fp_offset);
        }
        return Value{local->type};
      }
      auto global = globals_.find(expr.name);
      if (global != globals_.end()) {
        EmitAddrOf(R0, global->second->name);
        return Value{global->second->type};
      }
      return Error(expr.line, ks::StrPrintf("'%s' is not an lvalue",
                                            Str(expr.name).c_str()));
    }
    case Expr::Kind::kUnary:
      if (expr.op == Tok::kStar) {
        KS_ASSIGN_OR_RETURN(Value ptr, EmitExpr(*expr.lhs));
        const Type* t = Decay(ptr.type);
        if (!t->IsPointer()) {
          return Error(expr.line, "dereference of non-pointer");
        }
        return Value{t->pointee};
      }
      break;
    case Expr::Kind::kIndex: {
      KS_ASSIGN_OR_RETURN(Value base, EmitExpr(*expr.lhs));
      const Type* base_type = Decay(base.type);
      if (!base_type->IsPointer()) {
        return Error(expr.line, "subscript of non-pointer");
      }
      const Type* elem = base_type->pointee;
      KS_ASSIGN_OR_RETURN(int elem_size, SizeOf(elem, expr.line));
      Emit(Op::kPush, R0);
      KS_ASSIGN_OR_RETURN(Value index, EmitExpr(*expr.rhs));
      if (!Decay(index.type)->IsScalar()) {
        return Error(expr.line, "non-scalar subscript");
      }
      if (elem_size != 1) {
        EmitImm(Op::kMovRI, R1, elem_size);
        Emit(Op::kMulRR, R0, R1);
      }
      Emit(Op::kMovRR, R1, R0);
      Emit(Op::kPop, R0);
      Emit(Op::kAddRR, R0, R1);
      return Value{elem};
    }
    case Expr::Kind::kMember:
    case Expr::Kind::kArrow: {
      // The struct's address in r0, then the field's offset added.
      const Type* type;
      if (expr.kind == Expr::Kind::kMember) {
        KS_ASSIGN_OR_RETURN(Value base, EmitAddr(*expr.lhs));
        type = base.type;
        if (!type->IsStruct()) {
          return Error(expr.line, "'.' on non-struct");
        }
      } else {
        KS_ASSIGN_OR_RETURN(Value base, EmitExpr(*expr.lhs));
        const Type* t = Decay(base.type);
        if (!t->IsPointer() || !t->pointee->IsStruct()) {
          return Error(expr.line, "'->' on non-struct-pointer");
        }
        type = t->pointee;
      }
      KS_RETURN_IF_ERROR(LayoutOf(type, expr.line).status());
      const FieldLayout* field = FindField(type->struct_index, expr.name);
      if (field == nullptr) {
        return Error(expr.line, ks::StrPrintf("no field '%s' in struct %s",
                                              Str(expr.name).c_str(),
                                              Str(type->struct_name).c_str()));
      }
      if (field->offset != 0) {
        EmitImm(Op::kAddRI, R0, field->offset);
      }
      return Value{field->type};
    }
    default:
      break;
  }
  return Error(expr.line, "expression is not an lvalue");
}

ks::Result<Value> Codegen::EmitExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kIntLit:
      EmitImm(Op::kMovRI, R0, static_cast<int32_t>(expr.int_value));
      return Value{TypeTable::Int()};
    case Expr::Kind::kStrLit:
      EmitAddrOf(R0, InternString(expr.str_value));
      return Value{CharPointer()};
    case Expr::Kind::kVar: {
      if (expr.name == "__DATE__" || expr.name == "__TIME__") {
        // Build-timestamp strings land in .rodata.date/.rodata.time howto
        // sections, which run-pre matching compares content-ignoring.
        EmitAddrOf(R0, InternBuildString(expr.name == "__DATE__"));
        return Value{CharPointer()};
      }
      if (expr.slot >= 0 || globals_.count(expr.name) != 0) {
        KS_ASSIGN_OR_RETURN(Value addr, EmitAddr(expr));
        KS_RETURN_IF_ERROR(EmitLoad(addr.type, expr.line));
        return Value{Decay(addr.type)};
      }
      // A function designator: its address, loosely typed as int.
      if (FindSignature(expr.name) != nullptr ||
          FindBuiltin(expr.name) == nullptr) {
        // Unknown names are assumed to be functions defined in another
        // unit; the assembler interns an import.
        EmitAddrOf(R0, expr.name);
        return Value{TypeTable::Int()};
      }
      return Error(expr.line, ks::StrPrintf("builtin '%s' is not a value",
                                            Str(expr.name).c_str()));
    }
    case Expr::Kind::kSizeof: {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(expr.type, expr.line));
      EmitImm(Op::kMovRI, R0, size);
      return Value{TypeTable::Int()};
    }
    case Expr::Kind::kCast: {
      KS_ASSIGN_OR_RETURN(Value value, EmitExpr(*expr.lhs));
      EmitConvert(Decay(value.type), expr.type);
      return Value{expr.type};
    }
    case Expr::Kind::kUnary: {
      if (expr.op == Tok::kAmp) {
        KS_ASSIGN_OR_RETURN(Value addr, EmitAddr(*expr.lhs));
        return Value{types_.PointerTo(addr.type)};
      }
      if (expr.op == Tok::kStar) {
        KS_ASSIGN_OR_RETURN(Value addr, EmitAddr(expr));
        KS_RETURN_IF_ERROR(EmitLoad(addr.type, expr.line));
        return Value{Decay(addr.type)};
      }
      KS_RETURN_IF_ERROR(EmitExpr(*expr.lhs).status());
      switch (expr.op) {
        case Tok::kMinus:
          Emit(Op::kMovRR, R1, R0);
          EmitImm(Op::kMovRI, R0, 0);
          Emit(Op::kSubRR, R0, R1);
          break;
        case Tok::kNot: {
          std::string is_zero = NewLabel();
          EmitImm(Op::kCmpRI, R0, 0);
          EmitImm(Op::kMovRI, R0, 1);
          EmitBranch(Op::kJz32, is_zero);
          EmitImm(Op::kMovRI, R0, 0);
          EmitLabel(is_zero);
          break;
        }
        case Tok::kTilde:
          Emit(Op::kMovRR, R1, R0);
          EmitImm(Op::kMovRI, R0, -1);
          Emit(Op::kXorRR, R0, R1);
          break;
        default:
          return Error(expr.line, "unhandled unary op");
      }
      return Value{TypeTable::Int()};
    }
    case Expr::Kind::kBinary:
      return EmitBinary(expr);
    case Expr::Kind::kAssign: {
      if (expr.op == Tok::kAssign) {
        KS_ASSIGN_OR_RETURN(Value rhs, EmitExpr(*expr.rhs));
        Emit(Op::kPush, R0);
        KS_ASSIGN_OR_RETURN(Value lhs, EmitAddr(*expr.lhs));
        if (!lhs.type->IsScalar()) {
          return Error(expr.line, "assignment to non-scalar");
        }
        Emit(Op::kMovRR, R1, R0);
        Emit(Op::kPop, R0);
        EmitConvert(Decay(rhs.type), lhs.type);
        EmitStore(lhs.type);
        return Value{lhs.type};
      }
      // "+=" / "-=".
      KS_RETURN_IF_ERROR(EmitExpr(*expr.rhs).status());
      Emit(Op::kPush, R0);
      KS_ASSIGN_OR_RETURN(Value lhs, EmitAddr(*expr.lhs));
      if (!lhs.type->IsScalar()) {
        return Error(expr.line, "compound assignment to non-scalar");
      }
      Emit(Op::kMovRR, R2, R0);  // address
      KS_RETURN_IF_ERROR(EmitLoad(lhs.type, expr.line));
      Emit(Op::kPop, R1);  // rhs value
      if (lhs.type->IsPointer()) {
        KS_ASSIGN_OR_RETURN(int size, SizeOf(lhs.type->pointee, expr.line));
        if (size != 1) {
          EmitImm(Op::kMovRI, R3, size);
          Emit(Op::kMulRR, R1, R3);
        }
      }
      Emit(expr.op == Tok::kPlusAssign ? Op::kAddRR : Op::kSubRR, R0, R1);
      EmitConvert(TypeTable::Int(), lhs.type);
      Emit(Op::kMovRR, R1, R2);
      EmitStore(lhs.type);
      return Value{lhs.type};
    }
    case Expr::Kind::kPostIncDec: {
      KS_ASSIGN_OR_RETURN(Value lhs, EmitAddr(*expr.lhs));
      if (!lhs.type->IsScalar()) {
        return Error(expr.line, "++/-- on non-scalar");
      }
      int delta = 1;
      if (lhs.type->IsPointer()) {
        KS_ASSIGN_OR_RETURN(delta, SizeOf(lhs.type->pointee, expr.line));
      }
      Emit(Op::kMovRR, R2, R0);  // address
      KS_RETURN_IF_ERROR(EmitLoad(lhs.type, expr.line));
      Emit(Op::kPush, R0);  // old value: the expression's result
      EmitImm(expr.op == Tok::kInc ? Op::kAddRI : Op::kSubRI, R0, delta);
      EmitConvert(TypeTable::Int(), lhs.type);
      Emit(Op::kMovRR, R1, R2);
      EmitStore(lhs.type);
      Emit(Op::kPop, R0);
      return Value{lhs.type};
    }
    case Expr::Kind::kCall:
      return EmitCall(expr);
    case Expr::Kind::kIndex:
    case Expr::Kind::kMember:
    case Expr::Kind::kArrow: {
      KS_ASSIGN_OR_RETURN(Value addr, EmitAddr(expr));
      KS_RETURN_IF_ERROR(EmitLoad(addr.type, expr.line));
      return Value{Decay(addr.type)};
    }
  }
  return Error(expr.line, "unhandled expression");
}

ks::Status Codegen::EmitCompareSet(Tok op) {
  // Flags already set from "cmp r0, r1".
  Op jump;
  switch (op) {
    case Tok::kEq: jump = Op::kJz32; break;
    case Tok::kNe: jump = Op::kJnz32; break;
    case Tok::kLt: jump = Op::kJlt32; break;
    case Tok::kGe: jump = Op::kJge32; break;
    case Tok::kGt: jump = Op::kJgt32; break;
    case Tok::kLe: jump = Op::kJle32; break;
    default:
      return ks::Internal("bad comparison op " + std::string(Spelling(op)));
  }
  std::string taken = NewLabel();
  EmitImm(Op::kMovRI, R0, 1);
  EmitBranch(jump, taken);
  EmitImm(Op::kMovRI, R0, 0);
  EmitLabel(taken);
  return ks::OkStatus();
}

ks::Result<Value> Codegen::EmitBinary(const Expr& expr) {
  const Tok op = expr.op;

  if (op == Tok::kAndAnd || op == Tok::kOrOr) {
    const bool is_and = op == Tok::kAndAnd;
    std::string short_circuit = NewLabel();
    std::string done = NewLabel();
    KS_RETURN_IF_ERROR(EmitExpr(*expr.lhs).status());
    EmitImm(Op::kCmpRI, R0, 0);
    Op jump = is_and ? Op::kJz32 : Op::kJnz32;
    EmitBranch(jump, short_circuit);
    KS_RETURN_IF_ERROR(EmitExpr(*expr.rhs).status());
    EmitImm(Op::kCmpRI, R0, 0);
    EmitBranch(jump, short_circuit);
    EmitImm(Op::kMovRI, R0, is_and ? 1 : 0);
    EmitBranch(Op::kJmp32, done);
    EmitLabel(short_circuit);
    EmitImm(Op::kMovRI, R0, is_and ? 0 : 1);
    EmitLabel(done);
    return Value{TypeTable::Int()};
  }

  KS_ASSIGN_OR_RETURN(Value lhs, EmitExpr(*expr.lhs));
  Emit(Op::kPush, R0);
  KS_ASSIGN_OR_RETURN(Value rhs, EmitExpr(*expr.rhs));
  Emit(Op::kMovRR, R1, R0);
  Emit(Op::kPop, R0);

  const Type* lt = Decay(lhs.type);
  const Type* rt = Decay(rhs.type);

  if (op == Tok::kPlus || op == Tok::kMinus) {
    const Op add_or_sub = op == Tok::kPlus ? Op::kAddRR : Op::kSubRR;
    // Pointer arithmetic scaling.
    if (lt->IsPointer() && !rt->IsPointer()) {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(lt->pointee, expr.line));
      if (size != 1) {
        EmitImm(Op::kMovRI, R2, size);
        Emit(Op::kMulRR, R1, R2);
      }
      Emit(add_or_sub, R0, R1);
      return Value{lt};
    }
    if (op == Tok::kPlus && rt->IsPointer() && !lt->IsPointer()) {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(rt->pointee, expr.line));
      if (size != 1) {
        EmitImm(Op::kMovRI, R2, size);
        Emit(Op::kMulRR, R0, R2);
      }
      Emit(Op::kAddRR, R0, R1);
      return Value{rt};
    }
    if (op == Tok::kMinus && lt->IsPointer() && rt->IsPointer()) {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(lt->pointee, expr.line));
      Emit(Op::kSubRR, R0, R1);
      if (size != 1) {
        EmitImm(Op::kMovRI, R1, size);
        Emit(Op::kDivRR, R0, R1);
      }
      return Value{TypeTable::Int()};
    }
    Emit(add_or_sub, R0, R1);
    return Value{TypeTable::Int()};
  }

  auto simple = [this](Op insn) {
    Emit(insn, R0, R1);
    return Value{TypeTable::Int()};
  };
  switch (op) {
    case Tok::kStar: return simple(Op::kMulRR);
    case Tok::kSlash: return simple(Op::kDivRR);
    case Tok::kPercent: return simple(Op::kModRR);
    case Tok::kAmp: return simple(Op::kAndRR);
    case Tok::kPipe: return simple(Op::kOrRR);
    case Tok::kCaret: return simple(Op::kXorRR);
    case Tok::kShl: return simple(Op::kShlRR);
    case Tok::kShr: return simple(Op::kShrRR);
    default: break;
  }

  // Comparison.
  Emit(Op::kCmpRR, R0, R1);
  KS_RETURN_IF_ERROR(EmitCompareSet(op));
  return Value{TypeTable::Int()};
}

ks::Status Codegen::EmitArgsToRegs(const Expr& expr, int arity) {
  if (static_cast<int>(expr.args.size()) != arity) {
    return Error(expr.line,
                 ks::StrPrintf("builtin '%s' expects %d arguments, got %zu",
                               Str(expr.name).c_str(), arity,
                               expr.args.size()));
  }
  for (const Expr* arg : expr.args) {
    KS_RETURN_IF_ERROR(EmitExpr(*arg).status());
    Emit(Op::kPush, R0);
  }
  for (int i = arity - 1; i >= 0; --i) {
    Emit(Op::kPop, static_cast<uint8_t>(i));
  }
  return ks::OkStatus();
}

ks::Result<Value> Codegen::EmitCall(const Expr& expr) {
  const FuncDecl* signature = FindSignature(expr.name);
  // Intrinsics that lower to howto-tagged special sections, and the SYS
  // builtins. A local or a user declaration of the same name shadows them.
  if (expr.slot < 0 && signature == nullptr) {
    if (expr.name == "try_load") {
      // try_load(p, fallback): a faulting load. A bad pointer does not
      // crash the kernel; the exception-table fixup substitutes the
      // fallback value (the kernel's __get_user pattern).
      if (expr.args.size() != 2) {
        return Error(expr.line, "try_load needs (pointer, fallback)");
      }
      KS_RETURN_IF_ERROR(EmitExpr(*expr.args[1]).status());
      Emit(Op::kPush, R0);
      KS_RETURN_IF_ERROR(EmitExpr(*expr.args[0]).status());
      Emit(Op::kPop, R1);
      std::string lext = NewLabel();
      std::string lfix = NewLabel();
      std::string ldone = NewLabel();
      EmitLabel(lext);
      Emit(Op::kLoadF, R0, R0);
      EmitBranch(Op::kJmp32, ldone);
      EmitLabel(lfix);
      Emit(Op::kMovRR, R0, R1);
      EmitLabel(ldone);
      // The entry attaches to the outermost function being emitted, so
      // inline expansion credits the host function's table.
      kvx::Stmt& entry =
          text_.emplace_back(Kind::kExtable, Str(inline_stack_.front()));
      entry.args = {lext, lfix};
      return Value{TypeTable::Int()};
    }
    if (expr.name == "BUG") {
      // BUG(): an unconditional trap whose bug-table entry maps the trap
      // pc back to this source line.
      if (!expr.args.empty()) {
        return Error(expr.line, "BUG takes no arguments");
      }
      std::string lbug = NewLabel();
      EmitLabel(lbug);
      Emit(Op::kBug);
      text_.emplace_back(Kind::kBug, Str(inline_stack_.front()), expr.line)
          .args = {lbug};
      return Value{TypeTable::Int()};
    }
    if (expr.name == "invoke") {
      // invoke(fnaddr, args...): indirect call through r2.
      if (expr.args.empty()) {
        return Error(expr.line, "invoke needs a function address");
      }
      int pushed = 0;
      for (size_t i = expr.args.size(); i-- > 1;) {
        KS_RETURN_IF_ERROR(EmitExpr(*expr.args[i]).status());
        Emit(Op::kPush, R0);
        ++pushed;
      }
      KS_RETURN_IF_ERROR(EmitExpr(*expr.args[0]).status());
      Emit(Op::kMovRR, R2, R0);
      Emit(Op::kCallR, R2);
      if (pushed > 0) {
        EmitImm(Op::kAddRI, SP, 4 * pushed);
      }
      return Value{TypeTable::Int()};
    }
    if (const Builtin* builtin = FindBuiltin(expr.name)) {
      KS_RETURN_IF_ERROR(EmitArgsToRegs(expr, builtin->arity));
      EmitImm(Op::kSys, R0, builtin->sys);
      return Value{expr.name == "kmalloc" ? CharPointer() : TypeTable::Int()};
    }
  }

  if (signature != nullptr &&
      expr.args.size() != signature->params.size()) {
    return Error(expr.line,
                 ks::StrPrintf("call to '%s' with %zu args, expected %zu",
                               Str(expr.name).c_str(), expr.args.size(),
                               signature->params.size()));
  }

  // Inline expansion.
  const FuncDecl* def = FindDefinition(expr.name);
  if (def != nullptr && IsInlinable(*def) &&
      std::find(inline_stack_.begin(), inline_stack_.end(), expr.name) ==
          inline_stack_.end() &&
      inline_stack_.size() < 8) {
    inlined_functions_.insert(expr.name);
    return EmitInlineCall(*def, expr);
  }

  // Regular call: push args right-to-left with prototype conversions.
  for (size_t i = expr.args.size(); i-- > 0;) {
    KS_ASSIGN_OR_RETURN(Value arg, EmitExpr(*expr.args[i]));
    if (signature != nullptr) {
      EmitConvert(Decay(arg.type), signature->params[i].type);
    }
    Emit(Op::kPush, R0);
  }
  EmitBranch(Op::kCall, expr.name);
  if (!expr.args.empty()) {
    EmitImm(Op::kAddRI, SP, static_cast<int32_t>(4 * expr.args.size()));
  }
  return Value{signature != nullptr ? signature->ret : TypeTable::Int()};
}

ks::Result<Value> Codegen::EmitInlineCall(const FuncDecl& callee,
                                          const Expr& expr) {
  // Evaluate arguments into fresh frame slots with prototype conversions,
  // then expand the body with the callee's slots after the caller's:
  // parameter i is slot i. `return` jumps to a per-site label with the
  // value in r0.
  const size_t base = locals_.size();
  for (size_t i = 0; i < expr.args.size(); ++i) {
    KS_ASSIGN_OR_RETURN(Value arg, EmitExpr(*expr.args[i]));
    EmitConvert(Decay(arg.type), callee.params[i].type);
    int fp_offset = AllocSlot(4);
    locals_.push_back(LocalInfo{callee.params[i].type, fp_offset, {}});
    Emit(Op::kMovRR, R1, FP);
    EmitImm(Op::kAddRI, R1, fp_offset);
    Emit(Op::kStoreI, R1, R0);
  }
  locals_.resize(base + static_cast<size_t>(callee.slots));

  std::string saved_return_label = return_label_;
  const Type* saved_return_type = return_type_;
  const size_t saved_slot_base = slot_base_;
  std::vector<LoopLabels> saved_loops = std::move(loops_);
  loops_.clear();

  return_label_ = NewLabel();
  return_type_ = callee.ret;
  slot_base_ = base;
  inline_stack_.push_back(callee.name);

  ks::Status status = EmitStmt(*callee.body);

  inline_stack_.pop_back();
  EmitLabel(return_label_);
  return_label_ = std::move(saved_return_label);
  return_type_ = saved_return_type;
  slot_base_ = saved_slot_base;
  locals_.resize(base);
  loops_ = std::move(saved_loops);

  KS_RETURN_IF_ERROR(status);
  return Value{callee.ret};
}

// --------------------------------------------------------------------------
// Data

std::string_view Codegen::InternString(std::string_view value) {
  auto it = strings_.find(value);
  if (it != strings_.end()) {
    return it->second;
  }
  // Leading-dot names would be section-local labels to the assembler; use
  // a plain identifier so the literal becomes a proper (local) symbol.
  return strings_
      .emplace(value, Keep(ks::StrPrintf("str.h%08x", ks::Fnv1a32(value))))
      .first->second;
}

std::string Codegen::InternBuildString(bool date) {
  std::string& symbol = date ? date_symbol_ : time_symbol_;
  if (symbol.empty()) {
    symbol = ks::StrPrintf("kbuild.%s.h%08x", date ? "date" : "time",
                           ks::Fnv1a32(unit_.name));
  }
  return symbol;
}

ks::Status Codegen::EmitGlobal(const GlobalDecl& decl) {
  if (decl.is_extern) {
    return ks::OkStatus();  // import; the assembler interns on reference
  }
  KS_ASSIGN_OR_RETURN(int size, SizeOf(decl.type, decl.line));

  // A failure below fails the whole unit, so partial output is harmless.
  if (!decl.has_init) {
    OpenData(data_, kvx::Stmt(Kind::kBss), decl.name, !decl.is_static);
    data_.emplace_back(Kind::kSpace, "", size);
    return ks::OkStatus();
  }

  OpenData(data_, kvx::Stmt(Kind::kData), decl.name, !decl.is_static);
  bool char_elems =
      decl.type->IsChar() ||
      (decl.type->IsArray() && decl.type->pointee->IsChar());
  int emitted = 0;
  for (const InitElem& elem : decl.init) {
    switch (elem.kind) {
      case InitElem::Kind::kInt:
        if (char_elems) {
          data_.emplace_back(Kind::kByte, "", elem.int_value & 0xff);
          emitted += 1;
        } else {
          data_.emplace_back(Kind::kWord, "",
                             static_cast<int32_t>(elem.int_value));
          emitted += 4;
        }
        break;
      case InitElem::Kind::kSym:
        if (char_elems) {
          return Error(decl.line, "symbol initializer in char array");
        }
        data_.emplace_back(Kind::kWord, Str(elem.symbol));
        emitted += 4;
        break;
      case InitElem::Kind::kStr: {
        if (!char_elems) {
          return Error(decl.line, "string initializer on non-char data");
        }
        data_.emplace_back(Kind::kAsciz, Str(elem.str_value));
        emitted += static_cast<int>(elem.str_value.size()) + 1;
        break;
      }
    }
  }
  if (emitted > size) {
    return Error(decl.line, ks::StrPrintf("initializer too large (%d > %d)",
                                          emitted, size));
  }
  if (emitted < size) {
    data_.emplace_back(Kind::kSpace, "", size - emitted);
  }
  return ks::OkStatus();
}

}  // namespace

ks::Status GenerateCode(const Unit& unit, const CompileOptions& options,
                        const StmtSink& sink) {
  Codegen codegen(unit, options, sink);
  return codegen.Run();
}

ks::Result<std::vector<std::string>> InlinedFunctions(
    const Unit& unit, const CompileOptions& options) {
  StmtSink ignore = [](std::span<const kvx::Stmt>) {};
  Codegen codegen(unit, options, ignore);
  KS_RETURN_IF_ERROR(codegen.Run());
  return std::vector<std::string>(codegen.inlined_functions().begin(),
                                  codegen.inlined_functions().end());
}

}  // namespace kcc
