#include "kcc/codegen.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "base/hash.h"
#include "base/strings.h"

namespace kcc {

namespace {

// ------------------------------------------------------------------------
// Builtins lowered to SYS instructions (see kvx::Sys).

struct Builtin {
  int sys = -1;       // SYS number; -1 for `invoke`
  int arity = 0;
  bool returns_value = false;
};

const std::map<std::string, Builtin>& Builtins() {
  static const std::map<std::string, Builtin> table = {
      {"printk", {0, 1, false}},       {"ticks", {1, 0, true}},
      {"yield", {2, 0, false}},        {"sleep", {3, 1, false}},
      {"tid", {4, 0, true}},           {"krand", {5, 0, true}},
      {"exit_thread", {6, 0, false}},  {"record", {7, 2, false}},
      {"kthread", {8, 2, true}},       {"lock_kernel", {9, 0, false}},
      {"unlock_kernel", {10, 0, false}},
      {"shadow_attach", {11, 3, true}},
      {"shadow_get", {12, 2, true}},   {"shadow_detach", {13, 2, false}},
      {"kmalloc", {14, 1, true}},      {"kfree", {15, 1, false}},
      {"invoke", {-1, -1, true}},
  };
  return table;
}

std::string EscapeAsciz(std::string_view content) {
  std::string escaped;
  for (char c : content) {
    switch (c) {
      case '\n':
        escaped += "\\n";
        break;
      case '\t':
        escaped += "\\t";
        break;
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      default:
        escaped += c;
    }
  }
  return escaped;
}

// ------------------------------------------------------------------------
// Struct layout

struct FieldLayout {
  TypeRef type;
  int offset = 0;
};

struct StructLayout {
  std::map<std::string, FieldLayout> fields;
  std::vector<std::string> order;
  int size = 0;
  int align = 1;
};

// ------------------------------------------------------------------------
// Value categories

struct Value {
  TypeRef type;
};

struct GlobalInfo {
  TypeRef type;
  std::string symbol;
};

struct LocalInfo {
  TypeRef type;
  int fp_offset = 0;      // negative: locals; positive: parameters
  std::string symbol;     // non-empty for static locals (data symbol)
};

class Codegen {
 public:
  Codegen(const Unit& unit, const CodegenOptions& options)
      : unit_(unit), options_(options) {}

  ks::Result<std::string> Run();

  const std::set<std::string>& inlined_functions() const {
    return inlined_functions_;
  }

 private:
  // Setup ---------------------------------------------------------------
  ks::Status BuildStructTable();
  ks::Status BuildSymbolTables();
  ks::Result<int> SizeOf(const TypeRef& type, int line) const;
  ks::Result<int> AlignOf(const TypeRef& type, int line) const;
  ks::Result<const StructLayout*> LayoutOf(const std::string& name,
                                           int line) const;

  ks::Status Error(int line, const std::string& message) const {
    return ks::InvalidArgument(ks::StrPrintf("%s:%d: %s", unit_.name.c_str(),
                                             line, message.c_str()));
  }

  // Emission ------------------------------------------------------------
  void Emit(const std::string& line) { body_ += "    " + line + "\n"; }
  void EmitLabel(const std::string& label) { body_ += label + ":\n"; }
  std::string NewLabel() { return ks::StrPrintf(".L%d", label_counter_++); }

  // Functions -----------------------------------------------------------
  ks::Status EmitFunction(const FuncDecl& fn);
  bool IsInlinable(const FuncDecl& fn) const;
  const FuncDecl* FindDefinition(const std::string& name) const;
  const FuncDecl* FindSignature(const std::string& name) const;

  // Scopes: a stack of name->LocalInfo maps. Inline expansion pushes an
  // opaque boundary so callee bodies do not see caller locals.
  struct Scope {
    std::map<std::string, LocalInfo> vars;
    bool boundary = false;  // inline-expansion boundary
  };
  std::optional<LocalInfo> LookupLocal(const std::string& name) const;
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
  ks::Status EmitCompareSet(const std::string& op);

  // Loads the scalar at address r0 with the width of `type`.
  ks::Status EmitLoad(const TypeRef& type, int line);
  // Stores r0 to address r1 with the width of `type`.
  void EmitStore(const TypeRef& type);
  // Converts r0 from `from` to `to` (mask for char narrowing).
  void EmitConvert(const TypeRef& from, const TypeRef& to);

  // Decay: arrays yield their address as a pointer value.
  static TypeRef DecayType(const TypeRef& type) {
    return type->IsArray() ? Type::PointerTo(type->pointee) : type;
  }

  // Data ----------------------------------------------------------------
  ks::Status EmitGlobal(const GlobalDecl& decl);
  std::string InternString(const std::string& value);
  std::string InternBuildString(bool date);
  ks::Status EmitStaticLocalData(const std::string& symbol,
                                 const TypeRef& type, const Expr* init,
                                 int line);

  const Unit& unit_;
  CodegenOptions options_;

  std::map<std::string, StructLayout> structs_;
  std::map<std::string, GlobalInfo> globals_;
  std::map<std::string, int> static_ordinal_;  // per-name counter

  std::string text_;  // emitted function text
  std::string data_;  // emitted data directives
  std::string hook_directives_;
  std::string body_;  // current function body under construction
  std::map<std::string, std::string> strings_;  // content -> symbol
  std::set<std::string> emitted_strings_;
  // __DATE__/__TIME__ symbols; empty until first use. Hash-suffixed with
  // the unit name so every unit's build strings are distinct symbols (a
  // content-ignoring matcher could never disambiguate same-named ones).
  std::string date_symbol_;
  std::string time_symbol_;

  int label_counter_ = 0;
  int frame_size_ = 0;

  std::vector<Scope> scopes_;
  std::vector<LoopLabels> loops_;
  std::vector<std::string> inline_stack_;  // functions being expanded
  std::string return_label_;
  TypeRef return_type_;
  std::vector<std::string> deferred_static_data_;
  std::set<std::string> inlined_functions_;
};

ks::Status Codegen::BuildStructTable() {
  for (const StructDef& def : unit_.structs) {
    StructLayout layout;
    int offset = 0;
    for (const StructField& field : def.fields) {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(field.type, def.line));
      KS_ASSIGN_OR_RETURN(int align, AlignOf(field.type, def.line));
      offset = (offset + align - 1) / align * align;
      if (layout.fields.count(field.name) != 0) {
        return Error(def.line, ks::StrPrintf("duplicate field '%s'",
                                             field.name.c_str()));
      }
      layout.fields[field.name] = FieldLayout{field.type, offset};
      layout.order.push_back(field.name);
      offset += size;
      layout.align = std::max(layout.align, align);
    }
    layout.size = (offset + layout.align - 1) / layout.align * layout.align;
    structs_[def.name] = std::move(layout);
  }
  return ks::OkStatus();
}

ks::Result<int> Codegen::SizeOf(const TypeRef& type, int line) const {
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
      KS_ASSIGN_OR_RETURN(const StructLayout* layout,
                          LayoutOf(type->struct_name, line));
      return layout->size;
    }
  }
  return Error(line, "unsizeable type");
}

ks::Result<int> Codegen::AlignOf(const TypeRef& type, int line) const {
  switch (type->kind) {
    case Type::Kind::kChar:
      return 1;
    case Type::Kind::kArray:
      return AlignOf(type->pointee, line);
    case Type::Kind::kStruct: {
      KS_ASSIGN_OR_RETURN(const StructLayout* layout,
                          LayoutOf(type->struct_name, line));
      return layout->align;
    }
    default:
      return 4;
  }
}

ks::Result<const StructLayout*> Codegen::LayoutOf(const std::string& name,
                                                  int line) const {
  auto it = structs_.find(name);
  if (it == structs_.end()) {
    return Error(line, ks::StrPrintf("unknown struct '%s'", name.c_str()));
  }
  return &it->second;
}

ks::Status Codegen::BuildSymbolTables() {
  for (const GlobalDecl& decl : unit_.globals) {
    if (globals_.count(decl.name) != 0) {
      return Error(decl.line,
                   ks::StrPrintf("duplicate global '%s'", decl.name.c_str()));
    }
    globals_[decl.name] = GlobalInfo{decl.type, decl.name};
  }
  return ks::OkStatus();
}

const FuncDecl* Codegen::FindDefinition(const std::string& name) const {
  for (const FuncDecl& fn : unit_.functions) {
    if (fn.name == name && fn.is_definition) {
      return &fn;
    }
  }
  return nullptr;
}

const FuncDecl* Codegen::FindSignature(const std::string& name) const {
  const FuncDecl* def = FindDefinition(name);
  if (def != nullptr) {
    return def;
  }
  for (const FuncDecl& fn : unit_.functions) {
    if (fn.name == name) {
      return &fn;
    }
  }
  return nullptr;
}

namespace {

bool StmtHasStaticLocal(const Stmt& stmt);

bool StmtListHasStaticLocal(const std::vector<StmtPtr>& stmts) {
  for (const StmtPtr& stmt : stmts) {
    if (StmtHasStaticLocal(*stmt)) {
      return true;
    }
  }
  return false;
}

bool StmtHasStaticLocal(const Stmt& stmt) {
  if (stmt.kind == Stmt::Kind::kDecl && stmt.is_static_local) {
    return true;
  }
  for (const Stmt* child :
       {stmt.init_stmt.get(), stmt.then_body.get(), stmt.else_body.get(),
        stmt.body.get()}) {
    if (child != nullptr && StmtHasStaticLocal(*child)) {
      return true;
    }
  }
  return StmtListHasStaticLocal(stmt.stmts);
}

bool ExprCalls(const Expr& expr, const std::string& name) {
  if (expr.kind == Expr::Kind::kCall && expr.name == name) {
    return true;
  }
  for (const Expr* child : {expr.lhs.get(), expr.rhs.get()}) {
    if (child != nullptr && ExprCalls(*child, name)) {
      return true;
    }
  }
  for (const ExprPtr& arg : expr.args) {
    if (ExprCalls(*arg, name)) {
      return true;
    }
  }
  return false;
}

bool StmtCalls(const Stmt& stmt, const std::string& name) {
  for (const Expr* expr :
       {stmt.expr.get(), stmt.init.get(), stmt.cond.get(), stmt.step.get()}) {
    if (expr != nullptr && ExprCalls(*expr, name)) {
      return true;
    }
  }
  for (const Stmt* child :
       {stmt.init_stmt.get(), stmt.then_body.get(), stmt.else_body.get(),
        stmt.body.get()}) {
    if (child != nullptr && StmtCalls(*child, name)) {
      return true;
    }
  }
  for (const StmtPtr& child : stmt.stmts) {
    if (StmtCalls(*child, name)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool Codegen::IsInlinable(const FuncDecl& fn) const {
  if (!fn.is_definition || options_.inline_threshold <= 0) {
    return false;
  }
  if (fn.body_size > options_.inline_threshold) {
    return false;
  }
  if (StmtHasStaticLocal(*fn.body)) {
    return false;
  }
  if (StmtCalls(*fn.body, fn.name)) {
    return false;  // direct recursion
  }
  return true;
}

std::optional<LocalInfo> Codegen::LookupLocal(const std::string& name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto hit = it->vars.find(name);
    if (hit != it->vars.end()) {
      return hit->second;
    }
    if (it->boundary) {
      break;
    }
  }
  return std::nullopt;
}

int Codegen::AllocSlot(int size) {
  size = (size + 3) / 4 * 4;
  frame_size_ += size;
  return -frame_size_;
}

// --------------------------------------------------------------------------
// Functions

ks::Result<std::string> Codegen::Run() {
  KS_RETURN_IF_ERROR(BuildStructTable());
  KS_RETURN_IF_ERROR(BuildSymbolTables());

  // Hooks reference functions; validate and emit directives.
  for (const KspliceHook& hook : unit_.hooks) {
    if (FindDefinition(hook.func) == nullptr) {
      return Error(hook.line,
                   ks::StrPrintf("ksplice_%s names undefined function '%s'",
                                 hook.kind.c_str(), hook.func.c_str()));
    }
    hook_directives_ +=
        ks::StrPrintf(".ksplice_%s %s\n", hook.kind.c_str(),
                      hook.func.c_str());
  }

  text_ += ".text\n";
  for (const FuncDecl& fn : unit_.functions) {
    if (!fn.is_definition) {
      continue;
    }
    KS_RETURN_IF_ERROR(EmitFunction(fn));
  }

  for (const GlobalDecl& decl : unit_.globals) {
    KS_RETURN_IF_ERROR(EmitGlobal(decl));
  }

  // String literals, in deterministic (sorted-by-symbol) order.
  std::map<std::string, std::string> by_symbol;
  for (const auto& [content, symbol] : strings_) {
    by_symbol[symbol] = content;
  }
  for (const auto& [symbol, content] : by_symbol) {
    data_ += ".data\n";
    data_ += symbol + ":\n";
    data_ += "    .asciz \"" + EscapeAsciz(content) + "\"\n";
  }

  // Build-timestamp strings, each in its own howto-tagged section.
  if (!date_symbol_.empty()) {
    data_ += ".howto_section .rodata.date\n";
    data_ += date_symbol_ + ":\n";
    data_ += "    .asciz \"" + EscapeAsciz(options_.build_date) + "\"\n";
  }
  if (!time_symbol_.empty()) {
    data_ += ".howto_section .rodata.time\n";
    data_ += time_symbol_ + ":\n";
    data_ += "    .asciz \"" + EscapeAsciz(options_.build_time) + "\"\n";
  }

  std::string out = text_;
  for (const std::string& chunk : deferred_static_data_) {
    out += chunk;
  }
  out += data_;
  out += hook_directives_;
  return out;
}

ks::Status Codegen::EmitFunction(const FuncDecl& fn) {
  body_.clear();
  frame_size_ = 0;
  scopes_.clear();
  loops_.clear();
  inline_stack_.clear();
  inline_stack_.push_back(fn.name);
  return_label_ = NewLabel();
  return_type_ = fn.ret;

  Scope param_scope;
  param_scope.boundary = true;
  int offset = 8;  // [fp]=saved fp, [fp+4]=return address
  for (const ParamDecl& param : fn.params) {
    if (param.name.empty()) {
      return Error(fn.line, "definition with unnamed parameter");
    }
    if (!param.type->IsScalar()) {
      return Error(fn.line, ks::StrPrintf("parameter '%s' must be scalar",
                                          param.name.c_str()));
    }
    param_scope.vars[param.name] = LocalInfo{param.type, offset, ""};
    offset += 4;
  }
  scopes_.push_back(std::move(param_scope));

  KS_RETURN_IF_ERROR(EmitStmt(*fn.body));

  std::string out;
  if (!fn.is_static) {
    out += ".global " + fn.name + "\n";
  }
  out += fn.name + ":\n";
  out += "    push fp\n";
  out += "    mov fp, sp\n";
  if (frame_size_ > 0) {
    out += ks::StrPrintf("    sub sp, %d\n", frame_size_);
  }
  out += body_;
  out += return_label_ + ":\n";
  out += "    mov sp, fp\n";
  out += "    pop fp\n";
  out += "    ret\n";
  text_ += out;
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
      scopes_.push_back(Scope{});
      for (const StmtPtr& child : stmt.stmts) {
        KS_RETURN_IF_ERROR(EmitStmt(*child));
      }
      scopes_.pop_back();
      return ks::OkStatus();
    }
    case Stmt::Kind::kIf: {
      std::string else_label = NewLabel();
      KS_RETURN_IF_ERROR(EmitExpr(*stmt.cond).status());
      Emit("cmp r0, 0");
      Emit("jz " + else_label);
      KS_RETURN_IF_ERROR(EmitStmt(*stmt.then_body));
      if (stmt.else_body != nullptr) {
        std::string end_label = NewLabel();
        Emit("jmp " + end_label);
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
      Emit("cmp r0, 0");
      Emit("jz " + end);
      loops_.push_back(LoopLabels{end, head});
      KS_RETURN_IF_ERROR(EmitStmt(*stmt.body));
      loops_.pop_back();
      Emit("jmp " + head);
      EmitLabel(end);
      return ks::OkStatus();
    }
    case Stmt::Kind::kFor: {
      scopes_.push_back(Scope{});
      if (stmt.init_stmt != nullptr) {
        KS_RETURN_IF_ERROR(EmitStmt(*stmt.init_stmt));
      }
      std::string head = NewLabel();
      std::string step_label = NewLabel();
      std::string end = NewLabel();
      EmitLabel(head);
      if (stmt.cond != nullptr) {
        KS_RETURN_IF_ERROR(EmitExpr(*stmt.cond).status());
        Emit("cmp r0, 0");
        Emit("jz " + end);
      }
      loops_.push_back(LoopLabels{end, step_label});
      KS_RETURN_IF_ERROR(EmitStmt(*stmt.body));
      loops_.pop_back();
      EmitLabel(step_label);
      if (stmt.step != nullptr) {
        KS_RETURN_IF_ERROR(EmitExpr(*stmt.step).status());
      }
      Emit("jmp " + head);
      EmitLabel(end);
      scopes_.pop_back();
      return ks::OkStatus();
    }
    case Stmt::Kind::kReturn: {
      if (stmt.expr != nullptr) {
        KS_ASSIGN_OR_RETURN(Value value, EmitExpr(*stmt.expr));
        EmitConvert(value.type, return_type_);
      }
      Emit("jmp " + return_label_);
      return ks::OkStatus();
    }
    case Stmt::Kind::kBreak: {
      if (loops_.empty()) {
        return Error(stmt.line, "break outside loop");
      }
      Emit("jmp " + loops_.back().break_label);
      return ks::OkStatus();
    }
    case Stmt::Kind::kContinue: {
      if (loops_.empty()) {
        return Error(stmt.line, "continue outside loop");
      }
      Emit("jmp " + loops_.back().continue_label);
      return ks::OkStatus();
    }
  }
  return Error(stmt.line, "unhandled statement");
}

ks::Status Codegen::EmitLocalDecl(const Stmt& stmt) {
  if (scopes_.back().vars.count(stmt.decl_name) != 0) {
    return Error(stmt.line, ks::StrPrintf("duplicate local '%s'",
                                          stmt.decl_name.c_str()));
  }
  if (stmt.is_static_local) {
    int ordinal = ++static_ordinal_[stmt.decl_name];
    std::string symbol =
        ks::StrPrintf("%s.%d", stmt.decl_name.c_str(), ordinal);
    KS_RETURN_IF_ERROR(EmitStaticLocalData(symbol, stmt.decl_type,
                                           stmt.init.get(), stmt.line));
    scopes_.back().vars[stmt.decl_name] =
        LocalInfo{stmt.decl_type, 0, symbol};
    return ks::OkStatus();
  }
  KS_ASSIGN_OR_RETURN(int size, SizeOf(stmt.decl_type, stmt.line));
  int slot = AllocSlot(size);
  scopes_.back().vars[stmt.decl_name] = LocalInfo{stmt.decl_type, slot, ""};
  if (stmt.init != nullptr) {
    if (!stmt.decl_type->IsScalar()) {
      return Error(stmt.line, "initializer on non-scalar local");
    }
    KS_ASSIGN_OR_RETURN(Value value, EmitExpr(*stmt.init));
    EmitConvert(value.type, stmt.decl_type);
    Emit("mov r1, fp");
    Emit(ks::StrPrintf("add r1, %d", slot));
    if (stmt.decl_type->IsChar()) {
      Emit("storeb [r1], r0");
    } else {
      Emit("store [r1], r0");
    }
  }
  return ks::OkStatus();
}

ks::Status Codegen::EmitStaticLocalData(const std::string& symbol,
                                        const TypeRef& type, const Expr* init,
                                        int line) {
  KS_ASSIGN_OR_RETURN(int size, SizeOf(type, line));
  std::string chunk;
  if (init == nullptr) {
    chunk = ".bss\n" + symbol + ":\n" + ks::StrPrintf("    .space %d\n", size);
  } else {
    if (init->kind != Expr::Kind::kIntLit) {
      return Error(line, "static local initializer must be constant");
    }
    if (!type->IsScalar()) {
      return Error(line, "static local aggregate initializer unsupported");
    }
    chunk = ".data\n" + symbol + ":\n";
    if (type->IsChar()) {
      chunk += ks::StrPrintf("    .byte %d\n",
                             static_cast<int>(init->int_value & 0xff));
    } else {
      chunk += ks::StrPrintf("    .word %d\n",
                             static_cast<int>(init->int_value));
    }
  }
  deferred_static_data_.push_back(std::move(chunk));
  return ks::OkStatus();
}

// --------------------------------------------------------------------------
// Expressions

ks::Status Codegen::EmitLoad(const TypeRef& type, int line) {
  if (type->IsArray() || type->IsStruct()) {
    return ks::OkStatus();  // decays to address
  }
  if (type->kind == Type::Kind::kVoid) {
    return Error(line, "load of void");
  }
  if (type->IsChar()) {
    Emit("loadb r0, [r0]");
  } else {
    Emit("load r0, [r0]");
  }
  return ks::OkStatus();
}

void Codegen::EmitStore(const TypeRef& type) {
  if (type->IsChar()) {
    Emit("storeb [r1], r0");
  } else {
    Emit("store [r1], r0");
  }
}

void Codegen::EmitConvert(const TypeRef& from, const TypeRef& to) {
  if (to->IsChar() && !from->IsChar()) {
    Emit("and r0, 255");
  }
}

ks::Result<Value> Codegen::EmitAddr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kVar: {
      std::optional<LocalInfo> local = LookupLocal(expr.name);
      if (local.has_value()) {
        if (!local->symbol.empty()) {
          Emit("mov r0, =" + local->symbol);
        } else {
          Emit("mov r0, fp");
          Emit(ks::StrPrintf("add r0, %d", local->fp_offset));
        }
        return Value{local->type};
      }
      auto global = globals_.find(expr.name);
      if (global != globals_.end()) {
        Emit("mov r0, =" + global->second.symbol);
        return Value{global->second.type};
      }
      return Error(expr.line,
                   ks::StrPrintf("'%s' is not an lvalue", expr.name.c_str()));
    }
    case Expr::Kind::kUnary:
      if (expr.op == "*") {
        KS_ASSIGN_OR_RETURN(Value ptr, EmitExpr(*expr.lhs));
        TypeRef t = DecayType(ptr.type);
        if (!t->IsPointer()) {
          return Error(expr.line, "dereference of non-pointer");
        }
        return Value{t->pointee};
      }
      break;
    case Expr::Kind::kIndex: {
      TypeRef elem;
      KS_ASSIGN_OR_RETURN(Value base, EmitExpr(*expr.lhs));
      TypeRef base_type = DecayType(base.type);
      if (!base_type->IsPointer()) {
        return Error(expr.line, "subscript of non-pointer");
      }
      elem = base_type->pointee;
      KS_ASSIGN_OR_RETURN(int elem_size, SizeOf(elem, expr.line));
      Emit("push r0");
      KS_ASSIGN_OR_RETURN(Value index, EmitExpr(*expr.rhs));
      if (!DecayType(index.type)->IsScalar()) {
        return Error(expr.line, "non-scalar subscript");
      }
      if (elem_size != 1) {
        Emit(ks::StrPrintf("mov r1, %d", elem_size));
        Emit("mul r0, r1");
      }
      Emit("mov r1, r0");
      Emit("pop r0");
      Emit("add r0, r1");
      return Value{elem};
    }
    case Expr::Kind::kMember: {
      KS_ASSIGN_OR_RETURN(Value base, EmitAddr(*expr.lhs));
      if (!base.type->IsStruct()) {
        return Error(expr.line, "'.' on non-struct");
      }
      KS_ASSIGN_OR_RETURN(const StructLayout* layout,
                          LayoutOf(base.type->struct_name, expr.line));
      auto field = layout->fields.find(expr.member);
      if (field == layout->fields.end()) {
        return Error(expr.line,
                     ks::StrPrintf("no field '%s' in struct %s",
                                   expr.member.c_str(),
                                   base.type->struct_name.c_str()));
      }
      if (field->second.offset != 0) {
        Emit(ks::StrPrintf("add r0, %d", field->second.offset));
      }
      return Value{field->second.type};
    }
    case Expr::Kind::kArrow: {
      KS_ASSIGN_OR_RETURN(Value base, EmitExpr(*expr.lhs));
      TypeRef t = DecayType(base.type);
      if (!t->IsPointer() || !t->pointee->IsStruct()) {
        return Error(expr.line, "'->' on non-struct-pointer");
      }
      KS_ASSIGN_OR_RETURN(const StructLayout* layout,
                          LayoutOf(t->pointee->struct_name, expr.line));
      auto field = layout->fields.find(expr.member);
      if (field == layout->fields.end()) {
        return Error(expr.line,
                     ks::StrPrintf("no field '%s' in struct %s",
                                   expr.member.c_str(),
                                   t->pointee->struct_name.c_str()));
      }
      if (field->second.offset != 0) {
        Emit(ks::StrPrintf("add r0, %d", field->second.offset));
      }
      return Value{field->second.type};
    }
    default:
      break;
  }
  return Error(expr.line, "expression is not an lvalue");
}

ks::Result<Value> Codegen::EmitExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kIntLit:
      Emit(ks::StrPrintf("mov r0, %d",
                         static_cast<int32_t>(expr.int_value)));
      return Value{Type::Int()};
    case Expr::Kind::kStrLit: {
      std::string symbol = InternString(expr.str_value);
      Emit("mov r0, =" + symbol);
      return Value{Type::PointerTo(Type::Char())};
    }
    case Expr::Kind::kVar: {
      if (expr.name == "__DATE__" || expr.name == "__TIME__") {
        // Build-timestamp strings land in .rodata.date/.rodata.time howto
        // sections, which run-pre matching compares content-ignoring.
        Emit("mov r0, =" + InternBuildString(expr.name == "__DATE__"));
        return Value{Type::PointerTo(Type::Char())};
      }
      std::optional<LocalInfo> local = LookupLocal(expr.name);
      if (local.has_value() || globals_.count(expr.name) != 0) {
        KS_ASSIGN_OR_RETURN(Value addr, EmitAddr(expr));
        KS_RETURN_IF_ERROR(EmitLoad(addr.type, expr.line));
        return Value{DecayType(addr.type)};
      }
      // A function designator: its address, loosely typed as int.
      if (FindSignature(expr.name) != nullptr ||
          Builtins().count(expr.name) == 0) {
        // Unknown names are assumed to be functions defined in another
        // unit; the assembler interns an import.
        Emit("mov r0, =" + expr.name);
        return Value{Type::Int()};
      }
      return Error(expr.line, ks::StrPrintf("builtin '%s' is not a value",
                                            expr.name.c_str()));
    }
    case Expr::Kind::kSizeof: {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(expr.sizeof_type, expr.line));
      Emit(ks::StrPrintf("mov r0, %d", size));
      return Value{Type::Int()};
    }
    case Expr::Kind::kCast: {
      KS_ASSIGN_OR_RETURN(Value value, EmitExpr(*expr.lhs));
      EmitConvert(DecayType(value.type), expr.cast_type);
      return Value{expr.cast_type};
    }
    case Expr::Kind::kUnary: {
      if (expr.op == "&") {
        KS_ASSIGN_OR_RETURN(Value addr, EmitAddr(*expr.lhs));
        return Value{Type::PointerTo(addr.type)};
      }
      if (expr.op == "*") {
        KS_ASSIGN_OR_RETURN(Value ptr, EmitExpr(*expr.lhs));
        TypeRef t = DecayType(ptr.type);
        if (!t->IsPointer()) {
          return Error(expr.line, "dereference of non-pointer");
        }
        KS_RETURN_IF_ERROR(EmitLoad(t->pointee, expr.line));
        return Value{DecayType(t->pointee)};
      }
      KS_ASSIGN_OR_RETURN(Value value, EmitExpr(*expr.lhs));
      if (expr.op == "-") {
        Emit("mov r1, r0");
        Emit("mov r0, 0");
        Emit("sub r0, r1");
      } else if (expr.op == "!") {
        std::string is_zero = NewLabel();
        Emit("cmp r0, 0");
        Emit("mov r0, 1");
        Emit("jz " + is_zero);
        Emit("mov r0, 0");
        EmitLabel(is_zero);
      } else if (expr.op == "~") {
        Emit("mov r1, r0");
        Emit("mov r0, -1");
        Emit("xor r0, r1");
      } else {
        return Error(expr.line, "unhandled unary op");
      }
      return Value{Type::Int()};
    }
    case Expr::Kind::kBinary:
      return EmitBinary(expr);
    case Expr::Kind::kAssign: {
      if (expr.op == "=") {
        KS_ASSIGN_OR_RETURN(Value rhs, EmitExpr(*expr.rhs));
        Emit("push r0");
        KS_ASSIGN_OR_RETURN(Value lhs, EmitAddr(*expr.lhs));
        if (!lhs.type->IsScalar()) {
          return Error(expr.line, "assignment to non-scalar");
        }
        Emit("mov r1, r0");
        Emit("pop r0");
        EmitConvert(DecayType(rhs.type), lhs.type);
        EmitStore(lhs.type);
        return Value{lhs.type};
      }
      // "+=" / "-=".
      KS_ASSIGN_OR_RETURN(Value rhs, EmitExpr(*expr.rhs));
      Emit("push r0");
      KS_ASSIGN_OR_RETURN(Value lhs, EmitAddr(*expr.lhs));
      if (!lhs.type->IsScalar()) {
        return Error(expr.line, "compound assignment to non-scalar");
      }
      Emit("mov r2, r0");  // address
      KS_RETURN_IF_ERROR(EmitLoad(lhs.type, expr.line));
      Emit("pop r1");  // rhs value
      if (lhs.type->IsPointer()) {
        KS_ASSIGN_OR_RETURN(int size, SizeOf(lhs.type->pointee, expr.line));
        if (size != 1) {
          Emit(ks::StrPrintf("mov r3, %d", size));
          Emit("mul r1, r3");
        }
      }
      Emit(expr.op == "+=" ? "add r0, r1" : "sub r0, r1");
      EmitConvert(Type::Int(), lhs.type);
      Emit("mov r1, r2");
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
      Emit("mov r2, r0");  // address
      KS_RETURN_IF_ERROR(EmitLoad(lhs.type, expr.line));
      Emit("push r0");  // old value: the expression's result
      Emit(ks::StrPrintf(expr.op == "++" ? "add r0, %d" : "sub r0, %d",
                         delta));
      EmitConvert(Type::Int(), lhs.type);
      Emit("mov r1, r2");
      EmitStore(lhs.type);
      Emit("pop r0");
      return Value{lhs.type};
    }
    case Expr::Kind::kCall:
      return EmitCall(expr);
    case Expr::Kind::kIndex:
    case Expr::Kind::kMember:
    case Expr::Kind::kArrow: {
      KS_ASSIGN_OR_RETURN(Value addr, EmitAddr(expr));
      KS_RETURN_IF_ERROR(EmitLoad(addr.type, expr.line));
      return Value{DecayType(addr.type)};
    }
  }
  return Error(expr.line, "unhandled expression");
}

ks::Status Codegen::EmitCompareSet(const std::string& op) {
  // Flags already set from "cmp r0, r1".
  std::string taken = NewLabel();
  Emit("mov r0, 1");
  if (op == "==") {
    Emit("jz " + taken);
  } else if (op == "!=") {
    Emit("jnz " + taken);
  } else if (op == "<") {
    Emit("jlt " + taken);
  } else if (op == ">=") {
    Emit("jge " + taken);
  } else if (op == ">") {
    Emit("jgt " + taken);
  } else if (op == "<=") {
    Emit("jle " + taken);
  } else {
    return ks::Internal("bad comparison op " + op);
  }
  Emit("mov r0, 0");
  EmitLabel(taken);
  return ks::OkStatus();
}

ks::Result<Value> Codegen::EmitBinary(const Expr& expr) {
  const std::string& op = expr.op;

  if (op == "&&" || op == "||") {
    std::string short_circuit = NewLabel();
    std::string done = NewLabel();
    KS_RETURN_IF_ERROR(EmitExpr(*expr.lhs).status());
    Emit("cmp r0, 0");
    Emit((op == "&&" ? "jz " : "jnz ") + short_circuit);
    KS_RETURN_IF_ERROR(EmitExpr(*expr.rhs).status());
    Emit("cmp r0, 0");
    Emit((op == "&&" ? "jz " : "jnz ") + short_circuit);
    Emit(op == "&&" ? "mov r0, 1" : "mov r0, 0");
    Emit("jmp " + done);
    EmitLabel(short_circuit);
    Emit(op == "&&" ? "mov r0, 0" : "mov r0, 1");
    EmitLabel(done);
    return Value{Type::Int()};
  }

  KS_ASSIGN_OR_RETURN(Value lhs, EmitExpr(*expr.lhs));
  Emit("push r0");
  KS_ASSIGN_OR_RETURN(Value rhs, EmitExpr(*expr.rhs));
  Emit("mov r1, r0");
  Emit("pop r0");

  TypeRef lt = DecayType(lhs.type);
  TypeRef rt = DecayType(rhs.type);

  if (op == "+" || op == "-") {
    // Pointer arithmetic scaling.
    if (lt->IsPointer() && !rt->IsPointer()) {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(lt->pointee, expr.line));
      if (size != 1) {
        Emit(ks::StrPrintf("mov r2, %d", size));
        Emit("mul r1, r2");
      }
      Emit(op == "+" ? "add r0, r1" : "sub r0, r1");
      return Value{lt};
    }
    if (op == "+" && rt->IsPointer() && !lt->IsPointer()) {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(rt->pointee, expr.line));
      if (size != 1) {
        Emit(ks::StrPrintf("mov r2, %d", size));
        Emit("mul r0, r2");
      }
      Emit("add r0, r1");
      return Value{rt};
    }
    if (op == "-" && lt->IsPointer() && rt->IsPointer()) {
      KS_ASSIGN_OR_RETURN(int size, SizeOf(lt->pointee, expr.line));
      Emit("sub r0, r1");
      if (size != 1) {
        Emit(ks::StrPrintf("mov r1, %d", size));
        Emit("div r0, r1");
      }
      return Value{Type::Int()};
    }
    Emit(op == "+" ? "add r0, r1" : "sub r0, r1");
    return Value{Type::Int()};
  }

  static const std::map<std::string, const char*> kSimple = {
      {"*", "mul r0, r1"}, {"/", "div r0, r1"}, {"%", "mod r0, r1"},
      {"&", "and r0, r1"}, {"|", "or r0, r1"},  {"^", "xor r0, r1"},
      {"<<", "shl r0, r1"}, {">>", "shr r0, r1"},
  };
  auto simple = kSimple.find(op);
  if (simple != kSimple.end()) {
    Emit(simple->second);
    return Value{Type::Int()};
  }

  // Comparison.
  Emit("cmp r0, r1");
  KS_RETURN_IF_ERROR(EmitCompareSet(op));
  return Value{Type::Int()};
}

ks::Status Codegen::EmitArgsToRegs(const Expr& expr, int arity) {
  if (static_cast<int>(expr.args.size()) != arity) {
    return Error(expr.line,
                 ks::StrPrintf("builtin '%s' expects %d arguments, got %zu",
                               expr.name.c_str(), arity, expr.args.size()));
  }
  for (const ExprPtr& arg : expr.args) {
    KS_RETURN_IF_ERROR(EmitExpr(*arg).status());
    Emit("push r0");
  }
  for (int i = arity - 1; i >= 0; --i) {
    Emit(ks::StrPrintf("pop r%d", i));
  }
  return ks::OkStatus();
}

ks::Result<Value> Codegen::EmitCall(const Expr& expr) {
  // Intrinsics that lower to howto-tagged special sections. Like the SYS
  // builtins below, a user definition of the same name shadows them.
  if (LookupLocal(expr.name) == std::nullopt &&
      FindSignature(expr.name) == nullptr) {
    if (expr.name == "try_load") {
      // try_load(p, fallback): a faulting load. A bad pointer does not
      // crash the kernel; the exception-table fixup substitutes the
      // fallback value (the kernel's __get_user pattern).
      if (expr.args.size() != 2) {
        return Error(expr.line, "try_load needs (pointer, fallback)");
      }
      KS_RETURN_IF_ERROR(EmitExpr(*expr.args[1]).status());
      Emit("push r0");
      KS_RETURN_IF_ERROR(EmitExpr(*expr.args[0]).status());
      Emit("pop r1");
      std::string lext = NewLabel();
      std::string lfix = NewLabel();
      std::string ldone = NewLabel();
      EmitLabel(lext);
      Emit("loadf r0, [r0]");
      Emit("jmp " + ldone);
      EmitLabel(lfix);
      Emit("mov r0, r1");
      EmitLabel(ldone);
      // The entry attaches to the outermost function being emitted, so
      // inline expansion credits the host function's table.
      Emit(".extable_entry " + inline_stack_.front() + ", " + lext + ", " +
           lfix);
      return Value{Type::Int()};
    }
    if (expr.name == "BUG") {
      // BUG(): an unconditional trap whose bug-table entry maps the trap
      // pc back to this source line.
      if (!expr.args.empty()) {
        return Error(expr.line, "BUG takes no arguments");
      }
      std::string lbug = NewLabel();
      EmitLabel(lbug);
      Emit("bug");
      Emit(ks::StrPrintf(".bug_entry %s, %s, %d",
                         inline_stack_.front().c_str(), lbug.c_str(),
                         expr.line));
      return Value{Type::Int()};
    }
  }

  // Builtins.
  auto builtin = Builtins().find(expr.name);
  if (builtin != Builtins().end() && LookupLocal(expr.name) == std::nullopt &&
      FindSignature(expr.name) == nullptr) {
    if (expr.name == "invoke") {
      // invoke(fnaddr, args...): indirect call through r2.
      if (expr.args.empty()) {
        return Error(expr.line, "invoke needs a function address");
      }
      int pushed = 0;
      for (size_t i = expr.args.size(); i-- > 1;) {
        KS_RETURN_IF_ERROR(EmitExpr(*expr.args[i]).status());
        Emit("push r0");
        ++pushed;
      }
      KS_RETURN_IF_ERROR(EmitExpr(*expr.args[0]).status());
      Emit("mov r2, r0");
      Emit("callr r2");
      if (pushed > 0) {
        Emit(ks::StrPrintf("add sp, %d", 4 * pushed));
      }
      return Value{Type::Int()};
    }
    KS_RETURN_IF_ERROR(EmitArgsToRegs(expr, builtin->second.arity));
    Emit(ks::StrPrintf("sys %d", builtin->second.sys));
    TypeRef ret = Type::Int();
    if (expr.name == "kmalloc") {
      ret = Type::PointerTo(Type::Char());
    }
    return Value{ret};
  }

  const FuncDecl* signature = FindSignature(expr.name);
  if (signature != nullptr &&
      expr.args.size() != signature->params.size()) {
    return Error(expr.line,
                 ks::StrPrintf("call to '%s' with %zu args, expected %zu",
                               expr.name.c_str(), expr.args.size(),
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
      EmitConvert(DecayType(arg.type), signature->params[i].type);
    }
    Emit("push r0");
  }
  Emit("call " + expr.name);
  if (!expr.args.empty()) {
    Emit(ks::StrPrintf("add sp, %zu", 4 * expr.args.size()));
  }
  TypeRef ret = signature != nullptr ? signature->ret : Type::Int();
  return Value{ret};
}

ks::Result<Value> Codegen::EmitInlineCall(const FuncDecl& callee,
                                          const Expr& expr) {
  // Evaluate arguments into fresh frame slots with prototype conversions,
  // then expand the body with a boundary scope mapping parameter names to
  // those slots. `return` jumps to a per-site label with the value in r0.
  Scope callee_scope;
  callee_scope.boundary = true;
  std::vector<int> slots;
  for (size_t i = 0; i < expr.args.size(); ++i) {
    KS_ASSIGN_OR_RETURN(Value arg, EmitExpr(*expr.args[i]));
    EmitConvert(DecayType(arg.type), callee.params[i].type);
    int slot = AllocSlot(4);
    slots.push_back(slot);
    Emit("mov r1, fp");
    Emit(ks::StrPrintf("add r1, %d", slot));
    Emit("store [r1], r0");
  }
  for (size_t i = 0; i < callee.params.size(); ++i) {
    callee_scope.vars[callee.params[i].name] =
        LocalInfo{callee.params[i].type, slots[i], ""};
  }

  std::string saved_return_label = return_label_;
  TypeRef saved_return_type = return_type_;
  std::vector<LoopLabels> saved_loops = std::move(loops_);
  loops_.clear();

  return_label_ = NewLabel();
  return_type_ = callee.ret;
  inline_stack_.push_back(callee.name);
  scopes_.push_back(std::move(callee_scope));

  ks::Status status = EmitStmt(*callee.body);

  scopes_.pop_back();
  inline_stack_.pop_back();
  EmitLabel(return_label_);
  return_label_ = std::move(saved_return_label);
  return_type_ = saved_return_type;
  loops_ = std::move(saved_loops);

  KS_RETURN_IF_ERROR(status);
  return Value{callee.ret};
}

// --------------------------------------------------------------------------
// Data

std::string Codegen::InternString(const std::string& value) {
  auto it = strings_.find(value);
  if (it != strings_.end()) {
    return it->second;
  }
  // Leading-dot names would be section-local labels to the assembler; use
  // a plain identifier so the literal becomes a proper (local) symbol.
  std::string symbol = ks::StrPrintf("str.h%08x", ks::Fnv1a32(value));
  strings_[value] = symbol;
  return symbol;
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

  std::string chunk;
  auto header = [&](const char* segment) {
    chunk += std::string(segment) + "\n";
    if (!decl.is_static) {
      chunk += ".global " + decl.name + "\n";
    }
    chunk += decl.name + ":\n";
  };

  if (!decl.has_init) {
    header(".bss");
    chunk += ks::StrPrintf("    .space %d\n", size);
    data_ += chunk;
    return ks::OkStatus();
  }

  header(".data");
  bool char_elems =
      decl.type->IsChar() ||
      (decl.type->IsArray() && decl.type->pointee->IsChar());
  int emitted = 0;
  for (const InitElem& elem : decl.init) {
    switch (elem.kind) {
      case InitElem::Kind::kInt:
        if (char_elems) {
          chunk += ks::StrPrintf("    .byte %d\n",
                                 static_cast<int>(elem.int_value & 0xff));
          emitted += 1;
        } else {
          chunk += ks::StrPrintf("    .word %d\n",
                                 static_cast<int>(elem.int_value));
          emitted += 4;
        }
        break;
      case InitElem::Kind::kSym:
        if (char_elems) {
          return Error(decl.line, "symbol initializer in char array");
        }
        chunk += "    .word " + elem.symbol + "\n";
        emitted += 4;
        break;
      case InitElem::Kind::kStr: {
        if (!char_elems) {
          return Error(decl.line, "string initializer on non-char data");
        }
        chunk += "    .asciz \"" + EscapeAsciz(elem.str_value) + "\"\n";
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
    chunk += ks::StrPrintf("    .space %d\n", size - emitted);
  }
  data_ += chunk;
  return ks::OkStatus();
}

}  // namespace

ks::Result<std::string> GenerateAsm(const Unit& unit,
                                    const CodegenOptions& options) {
  Codegen codegen(unit, options);
  return codegen.Run();
}

ks::Result<std::vector<std::string>> InlinedFunctions(
    const Unit& unit, const CodegenOptions& options) {
  Codegen codegen(unit, options);
  KS_RETURN_IF_ERROR(codegen.Run().status());
  return std::vector<std::string>(codegen.inlined_functions().begin(),
                                  codegen.inlined_functions().end());
}

}  // namespace kcc
