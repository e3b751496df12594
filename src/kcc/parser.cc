#include "kcc/parser.h"

#include <algorithm>
#include <utility>

#include "base/strings.h"

namespace kcc {

namespace {

// Hook spellings accepted at file scope (§5.3 of the paper).
constexpr std::string_view kHookNames[] = {
    "ksplice_apply",       "ksplice_pre_apply",  "ksplice_post_apply",
    "ksplice_reverse",     "ksplice_pre_reverse", "ksplice_post_reverse",
};

class Parser {
 public:
  Parser(const std::vector<Token>& tokens, Unit& unit)
      : tokens_(tokens), unit_(unit) {}

  ks::Status Run();

 private:
  // Token access --------------------------------------------------------
  const Token& Peek(int ahead = 0) const {
    size_t idx = pos_ + static_cast<size_t>(ahead);
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEof() const { return Peek().kind == TokKind::kEof; }

  // Tests for a punctuator or keyword.
  bool Check(Tok tok) const { return Peek().tok == tok; }
  bool Match(Tok tok) {
    if (Check(tok)) {
      ++pos_;
      return true;
    }
    return false;
  }

  ks::Status Error(const std::string& message) const {
    return ks::InvalidArgument(ks::StrPrintf("%s:%d: %s", unit_.name.c_str(),
                                             Peek().line, message.c_str()));
  }
  // The token at hand as diagnostics quote it: its spelling, or '' for a
  // literal or the end of input.
  std::string Quoted() const {
    const Token& tok = Peek();
    std::string text(tok.tok != Tok::kNone ? Spelling(tok.tok) : tok.ident);
    return "'" + text + "'";
  }
  ks::Status Expect(Tok tok) {
    if (!Match(tok)) {
      return Error("expected '" + std::string(Spelling(tok)) + "', got " +
                   Quoted());
    }
    return ks::OkStatus();
  }
  ks::Result<std::string_view> ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) {
      return Error("expected identifier, got " + Quoted());
    }
    return Advance().ident;
  }

  // Arena ----------------------------------------------------------------
  Expr* NewExpr(Expr::Kind kind, int line, const Expr* lhs = nullptr,
                const Expr* rhs = nullptr, Tok op = Tok::kNone) {
    ++nodes_;
    return alloc_.new_object<Expr>(Expr{
        .kind = kind, .op = op, .line = line, .lhs = lhs, .rhs = rhs});
  }
  Stmt* NewStmt(Stmt::Kind kind, int line) {
    ++nodes_;
    return alloc_.new_object<Stmt>(Stmt{.kind = kind, .line = line});
  }
  // Moves the list being built at stack[from, end) into the arena. Lists
  // nest (a block in a block), so each kind shares one stack.
  template <typename T>
  std::span<const T> Take(std::pmr::vector<T>& stack, size_t from) {
    const size_t n = stack.size() - from;
    T* out = alloc_.allocate_object<T>(n);
    std::uninitialized_copy(stack.begin() + static_cast<long>(from),
                            stack.end(), out);
    stack.resize(from);
    return {out, n};
  }
  std::string_view CopyString(std::string_view text) {
    char* out = alloc_.allocate_object<char>(text.size());
    return {out, text.copy(out, text.size())};
  }

  // Locals ---------------------------------------------------------------
  // locals_ holds the function's visible locals, innermost last; the
  // innermost scope's are locals_[scope_start_, end).
  struct Local {
    std::string_view name;
    int slot;
  };
  int Declare(std::string_view name) {
    locals_.push_back(Local{name, slots_});
    return slots_++;
  }
  int Lookup(std::string_view name, size_t from = 0) const {
    auto it = std::find_if(locals_.rbegin(), locals_.rend() - from,
                           [name](const Local& l) { return l.name == name; });
    return it == locals_.rend() - from ? -1 : it->slot;
  }
  // Opens a scope, returning the enclosing one's start for CloseScope.
  size_t OpenScope() { return std::exchange(scope_start_, locals_.size()); }
  void CloseScope(size_t outer) {
    locals_.resize(std::exchange(scope_start_, outer));
  }

  // Types ----------------------------------------------------------------
  static bool IsTypeKeyword(Tok tok) {
    return tok == Tok::kInt || tok == Tok::kChar || tok == Tok::kVoid ||
           tok == Tok::kStruct;
  }
  bool AtTypeStart() const { return IsTypeKeyword(Peek().tok); }
  ks::Result<const Type*> ParseBaseType();
  ks::Result<const Type*> ParseType() {  // a base type, then any '*'s
    KS_ASSIGN_OR_RETURN(const Type* type, ParseBaseType());
    while (Match(Tok::kStar)) {
      type = types_.PointerTo(type);
    }
    return type;
  }
  // `type`, or an array of it when "[" INT "]" follows.
  ks::Result<const Type*> ParseFixedArray(const Type* type);

  // Top level -------------------------------------------------------------
  ks::Status ParseTop();
  ks::Status ParseStructDef();
  ks::Status ParseHook();
  ks::Status ParseFunctionRest(FuncDecl fn);
  ks::Status ParseGlobalRest(GlobalDecl decl);
  ks::Status ParseInitializer(const Type* type);
  ks::Result<InitElem> ParseInitElem();

  // Statements ------------------------------------------------------------
  ks::Result<const Stmt*> ParseStmt();
  ks::Result<const Stmt*> ParseBlock();

  // Expressions -----------------------------------------------------------
  ks::Result<Expr*> ParseExpr() { return ParseAssign(); }
  ks::Result<Expr*> ParseAssign();
  ks::Result<Expr*> ParseBinary(int min_prec);
  ks::Result<Expr*> ParseUnary();
  ks::Result<Expr*> ParsePostfix();
  ks::Result<Expr*> ParsePrimary();
  Expr* Fold(Tok op, Expr* lhs, Expr* rhs, int line);

  const std::vector<Token>& tokens_;
  Unit& unit_;
  std::pmr::polymorphic_allocator<> alloc_{unit_.arena()};
  TypeTable& types_ = unit_.types();
  size_t pos_ = 0;

  // Lists under construction.
  std::pmr::vector<const Expr*> exprs_{alloc_};
  std::pmr::vector<const Stmt*> stmts_{alloc_};
  std::pmr::vector<Declarator> decls_{alloc_};  // fields or parameters
  std::pmr::vector<InitElem> inits_{alloc_};
  std::pmr::vector<StructDef> structs_{alloc_};
  std::pmr::vector<GlobalDecl> globals_{alloc_};
  std::pmr::vector<FuncDecl> functions_{alloc_};
  std::pmr::vector<KspliceHook> hooks_{alloc_};

  // The definition whose body is being parsed, and its locals.
  FuncDecl* function_ = nullptr;
  std::pmr::vector<Local> locals_{alloc_};
  size_t scope_start_ = 0;
  int slots_ = 0;
  int nodes_ = 0;  // nodes made, less nodes folded away
};

ks::Result<const Type*> Parser::ParseBaseType() {
  if (Match(Tok::kInt)) {
    return TypeTable::Int();
  }
  if (Match(Tok::kChar)) {
    return TypeTable::Char();
  }
  if (Match(Tok::kVoid)) {
    return TypeTable::Void();
  }
  if (Match(Tok::kStruct)) {
    KS_ASSIGN_OR_RETURN(std::string_view name, ExpectIdent());
    return types_.Struct(name);
  }
  return Error("expected type");
}

ks::Result<const Type*> Parser::ParseFixedArray(const Type* type) {
  if (!Match(Tok::kLBracket)) {
    return type;
  }
  if (Peek().kind != TokKind::kIntLit) {
    return Error("expected array length");
  }
  int len = static_cast<int>(Advance().int_value);
  KS_RETURN_IF_ERROR(Expect(Tok::kRBracket));
  return types_.ArrayOf(type, len);
}

ks::Status Parser::Run() {
  while (!AtEof()) {
    KS_RETURN_IF_ERROR(ParseTop());
  }
  unit_.structs = Take(structs_, 0);
  unit_.globals = Take(globals_, 0);
  unit_.functions = Take(functions_, 0);
  unit_.hooks = Take(hooks_, 0);
  return ks::OkStatus();
}

ks::Status Parser::ParseTop() {
  // struct definition: "struct NAME {" (otherwise it's a type use).
  if (Check(Tok::kStruct) && Peek(1).kind == TokKind::kIdent &&
      Peek(2).tok == Tok::kLBrace) {
    return ParseStructDef();
  }
  // ksplice hook.
  if (Peek().kind == TokKind::kIdent) {
    for (std::string_view hook : kHookNames) {
      if (Peek().ident == hook) {
        return ParseHook();
      }
    }
  }

  bool is_static = false;
  bool is_extern = false;
  bool is_inline = false;
  while (Check(Tok::kStatic) || Check(Tok::kExtern) || Check(Tok::kInline)) {
    Tok qualifier = Advance().tok;
    is_static = is_static || qualifier == Tok::kStatic;
    is_extern = is_extern || qualifier == Tok::kExtern;
    is_inline = is_inline || qualifier == Tok::kInline;
  }
  int line = Peek().line;
  KS_ASSIGN_OR_RETURN(const Type* type, ParseType());
  KS_ASSIGN_OR_RETURN(std::string_view name, ExpectIdent());

  if (Check(Tok::kLParen)) {  // `extern` on a prototype is redundant
    return ParseFunctionRest(FuncDecl{.ret = type, .name = name,
                                      .is_static = is_static,
                                      .is_inline_kw = is_inline, .line = line});
  }
  if (is_inline) {
    return Error("'inline' is only valid on functions");
  }
  return ParseGlobalRest(GlobalDecl{.type = type, .name = name,
                                    .is_static = is_static,
                                    .is_extern = is_extern, .line = line});
}

ks::Status Parser::ParseStructDef() {
  Match(Tok::kStruct);
  KS_ASSIGN_OR_RETURN(std::string_view name, ExpectIdent());
  int line = Peek().line;
  KS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
  while (!Match(Tok::kRBrace)) {
    KS_ASSIGN_OR_RETURN(const Type* type, ParseType());
    KS_ASSIGN_OR_RETURN(std::string_view field, ExpectIdent());
    KS_ASSIGN_OR_RETURN(type, ParseFixedArray(type));
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    decls_.push_back(Declarator{type, field});
  }
  KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
  if (decls_.empty()) {
    return Error("empty struct");
  }
  for (const StructDef& existing : structs_) {
    if (existing.name == name) {
      return Error(ks::StrPrintf("duplicate struct '%s'",
                                 std::string(name).c_str()));
    }
  }
  types_.Struct(name)->struct_index = static_cast<int>(structs_.size());
  structs_.push_back(StructDef{name, Take(decls_, 0), line});
  return ks::OkStatus();
}

ks::Status Parser::ParseHook() {
  std::string_view spelling = Advance().ident;
  KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
  KS_ASSIGN_OR_RETURN(std::string_view func, ExpectIdent());
  KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
  KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
  hooks_.push_back(KspliceHook{
      spelling.substr(std::string_view("ksplice_").size()), func,
      Peek().line});
  return ks::OkStatus();
}

ks::Status Parser::ParseFunctionRest(FuncDecl fn) {
  KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
  // Parameters take slots 0, 1, ... in a scope of their own, outside the
  // body's block.
  locals_.clear();
  scope_start_ = 0;
  slots_ = 0;
  if (Check(Tok::kVoid) && Peek(1).tok == Tok::kRParen) {
    Advance();  // (void): no parameters
  } else if (!Check(Tok::kRParen)) {
    while (true) {
      KS_ASSIGN_OR_RETURN(const Type* type, ParseType());
      if (type->kind == Type::Kind::kVoid) {
        return Error("parameter of type void");
      }
      // Prototypes may omit parameter names.
      std::string_view pname;
      if (Peek().kind == TokKind::kIdent) {
        pname = Advance().ident;
      }
      if (Match(Tok::kLBracket)) {
        KS_RETURN_IF_ERROR(Expect(Tok::kRBracket));
        type = types_.PointerTo(type);  // array param decays
      }
      decls_.push_back(Declarator{type, pname});
      Declare(pname);
      if (!Match(Tok::kComma)) {
        break;
      }
    }
  }
  KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
  fn.params = Take(decls_, 0);

  if (Match(Tok::kSemi)) {
    fn.is_definition = false;
    functions_.push_back(fn);
    return ks::OkStatus();
  }
  function_ = &fn;
  const int nodes = nodes_;
  KS_ASSIGN_OR_RETURN(fn.body, ParseBlock());
  function_ = nullptr;
  fn.is_definition = true;
  fn.body_size = nodes_ - nodes;
  fn.slots = slots_;
  functions_.push_back(fn);
  return ks::OkStatus();
}

ks::Status Parser::ParseGlobalRest(GlobalDecl decl) {
  if (Match(Tok::kLBracket)) {
    int len = -1;  // inferred from initializer
    if (Peek().kind == TokKind::kIntLit) {
      len = static_cast<int>(Advance().int_value);
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kRBracket));
    decl.type = types_.ArrayOf(decl.type, len);
  }

  if (Match(Tok::kAssign)) {
    if (decl.is_extern) {
      return Error("extern declaration with initializer");
    }
    KS_RETURN_IF_ERROR(ParseInitializer(decl.type));
    decl.init = Take(inits_, 0);
    decl.has_init = true;
  }
  KS_RETURN_IF_ERROR(Expect(Tok::kSemi));

  // Fix inferred array lengths.
  if (decl.type->IsArray() && decl.type->array_len < 0) {
    if (!decl.has_init) {
      return Error(ks::StrPrintf("array '%s' has no size",
                                 std::string(decl.name).c_str()));
    }
    int len = 0;
    for (const InitElem& elem : decl.init) {
      len += elem.kind == InitElem::Kind::kStr
                 ? static_cast<int>(elem.str_value.size()) + 1
                 : 1;
    }
    decl.type = types_.ArrayOf(decl.type->pointee, len);
  }
  globals_.push_back(decl);
  return ks::OkStatus();
}

ks::Result<InitElem> Parser::ParseInitElem() {
  InitElem elem;
  if (Peek().kind == TokKind::kStrLit) {
    elem.kind = InitElem::Kind::kStr;
    elem.str_value = CopyString(Advance().str_value);
    return elem;
  }
  // Symbol reference: bare identifier or &identifier.
  if (Peek().kind == TokKind::kIdent ||
      (Check(Tok::kAmp) && Peek(1).kind == TokKind::kIdent)) {
    Match(Tok::kAmp);
    elem.kind = InitElem::Kind::kSym;
    elem.symbol = Advance().ident;
    return elem;
  }
  // Constant expression: parse and fold.
  KS_ASSIGN_OR_RETURN(const Expr* expr, ParseExpr());
  if (expr->kind != Expr::Kind::kIntLit) {
    return Error("initializer is not a constant");
  }
  elem.kind = InitElem::Kind::kInt;
  elem.int_value = expr->int_value;
  return elem;
}

ks::Status Parser::ParseInitializer(const Type* type) {
  if (Match(Tok::kLBrace)) {
    if (!type->IsArray()) {
      return Error("brace initializer on non-array");
    }
    while (!Check(Tok::kRBrace)) {
      KS_ASSIGN_OR_RETURN(InitElem elem, ParseInitElem());
      inits_.push_back(elem);
      if (!Match(Tok::kComma)) {
        break;
      }
    }
    return Expect(Tok::kRBrace);
  }
  KS_ASSIGN_OR_RETURN(InitElem elem, ParseInitElem());
  inits_.push_back(elem);
  return ks::OkStatus();
}

// -------------------------------------------------------------------------
// Statements

ks::Result<const Stmt*> Parser::ParseBlock() {
  KS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
  Stmt* block = NewStmt(Stmt::Kind::kBlock, Peek().line);
  const size_t outer = OpenScope();
  const size_t from = stmts_.size();
  while (!Match(Tok::kRBrace)) {
    if (AtEof()) {
      return Error("unterminated block");
    }
    KS_ASSIGN_OR_RETURN(const Stmt* stmt, ParseStmt());
    stmts_.push_back(stmt);
  }
  block->stmts = Take(stmts_, from);
  CloseScope(outer);
  return block;
}

ks::Result<const Stmt*> Parser::ParseStmt() {
  const int line = Peek().line;
  if (Check(Tok::kLBrace)) {
    return ParseBlock();
  }
  if (Match(Tok::kSemi)) {
    return NewStmt(Stmt::Kind::kEmpty, line);
  }
  if (Check(Tok::kIf) || Check(Tok::kWhile)) {
    const bool is_if = Advance().tok == Tok::kIf;
    Stmt* stmt = NewStmt(is_if ? Stmt::Kind::kIf : Stmt::Kind::kWhile, line);
    KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
    KS_ASSIGN_OR_RETURN(stmt->cond, ParseExpr());
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    const Stmt*& body = is_if ? stmt->then_body : stmt->body;
    KS_ASSIGN_OR_RETURN(body, ParseStmt());
    if (is_if && Match(Tok::kElse)) {
      KS_ASSIGN_OR_RETURN(stmt->else_body, ParseStmt());
    }
    return stmt;
  }
  if (Match(Tok::kFor)) {
    Stmt* stmt = NewStmt(Stmt::Kind::kFor, line);
    const size_t outer = OpenScope();
    KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
    if (!Match(Tok::kSemi)) {
      KS_ASSIGN_OR_RETURN(stmt->init_stmt, ParseStmt());  // consumes ';'
    }
    if (!Check(Tok::kSemi)) {
      KS_ASSIGN_OR_RETURN(stmt->cond, ParseExpr());
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    const size_t step_pos = pos_;
    const int nodes = nodes_;
    if (!Check(Tok::kRParen)) {
      KS_ASSIGN_OR_RETURN(stmt->step, ParseExpr());
    }
    const int step_nodes = nodes_ - nodes;
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    KS_ASSIGN_OR_RETURN(stmt->body, ParseStmt());
    // A declaration that is the whole body joins the loop's scope, and the
    // step, which runs after it, sees it: parse the step again.
    if (stmt->step != nullptr && stmt->body->kind == Stmt::Kind::kDecl) {
      const size_t end = std::exchange(pos_, step_pos);
      KS_ASSIGN_OR_RETURN(stmt->step, ParseExpr());
      pos_ = end;
      nodes_ -= step_nodes;
    }
    CloseScope(outer);
    return stmt;
  }
  if (Match(Tok::kReturn)) {
    Stmt* stmt = NewStmt(Stmt::Kind::kReturn, line);
    if (!Check(Tok::kSemi)) {
      KS_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    return stmt;
  }
  if (Check(Tok::kBreak) || Check(Tok::kContinue)) {
    Stmt* stmt = NewStmt(Advance().tok == Tok::kBreak ? Stmt::Kind::kBreak
                                                      : Stmt::Kind::kContinue,
                         line);
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    return stmt;
  }

  // Local declaration? Its name is in scope in its own initializer.
  bool is_static_local = Match(Tok::kStatic);
  if (AtTypeStart()) {
    Stmt* stmt = NewStmt(Stmt::Kind::kDecl, line);
    stmt->is_static_local = is_static_local;
    function_->has_static_local |= is_static_local;
    KS_ASSIGN_OR_RETURN(const Type* type, ParseType());
    KS_ASSIGN_OR_RETURN(stmt->decl_name, ExpectIdent());
    KS_ASSIGN_OR_RETURN(stmt->decl_type, ParseFixedArray(type));
    stmt->redeclares = Lookup(stmt->decl_name, scope_start_) >= 0;
    stmt->slot = Declare(stmt->decl_name);
    if (Match(Tok::kAssign)) {
      KS_ASSIGN_OR_RETURN(stmt->init, ParseExpr());
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    return stmt;
  }
  if (is_static_local) {
    return Error("expected declaration after 'static'");
  }

  Stmt* stmt = NewStmt(Stmt::Kind::kExpr, line);
  KS_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
  KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
  return stmt;
}

// -------------------------------------------------------------------------
// Expressions

namespace {

// Binary operator precedence; higher binds tighter.
int Precedence(Tok op) {
  switch (op) {
    case Tok::kOrOr: return 1;
    case Tok::kAndAnd: return 2;
    case Tok::kPipe: return 3;
    case Tok::kCaret: return 4;
    case Tok::kAmp: return 5;
    case Tok::kEq: case Tok::kNe: return 6;
    case Tok::kLt: case Tok::kLe: case Tok::kGt: case Tok::kGe: return 7;
    case Tok::kShl: case Tok::kShr: return 8;
    case Tok::kPlus: case Tok::kMinus: return 9;
    case Tok::kStar: case Tok::kSlash: case Tok::kPercent: return 10;
    default: return -1;
  }
}

}  // namespace

// Folds a binary op over constants; used opportunistically so that trivial
// arithmetic does not inflate AST size (and thus inlining decisions). The
// folded value reuses the left operand's node.
Expr* Parser::Fold(Tok op, Expr* lhs, Expr* rhs, int line) {
  if (lhs->kind == Expr::Kind::kIntLit && rhs->kind == Expr::Kind::kIntLit) {
    auto make = [&](int64_t v) {
      --nodes_;  // rhs
      lhs->line = line;
      lhs->int_value = static_cast<int32_t>(v);
      return lhs;
    };
    int64_t a = lhs->int_value;
    int64_t b = rhs->int_value;
    switch (op) {
      case Tok::kPlus: return make(a + b);
      case Tok::kMinus: return make(a - b);
      case Tok::kStar: return make(a * b);
      case Tok::kSlash: if (b != 0) return make(a / b); break;
      case Tok::kPercent: if (b != 0) return make(a % b); break;
      case Tok::kAmp: return make(a & b);
      case Tok::kPipe: return make(a | b);
      case Tok::kCaret: return make(a ^ b);
      case Tok::kShl: if (b >= 0 && b < 32) return make(a << b); break;
      case Tok::kShr:
        if (b >= 0 && b < 32) {
          return make(static_cast<int64_t>(static_cast<uint32_t>(a) >> b));
        }
        break;
      case Tok::kEq: return make(a == b ? 1 : 0);
      case Tok::kNe: return make(a != b ? 1 : 0);
      case Tok::kLt: return make(a < b ? 1 : 0);
      case Tok::kLe: return make(a <= b ? 1 : 0);
      case Tok::kGt: return make(a > b ? 1 : 0);
      case Tok::kGe: return make(a >= b ? 1 : 0);
      default: break;
    }
  }
  return NewExpr(Expr::Kind::kBinary, line, lhs, rhs, op);
}

ks::Result<Expr*> Parser::ParseAssign() {
  KS_ASSIGN_OR_RETURN(Expr* lhs, ParseBinary(1));
  if (Check(Tok::kAssign) || Check(Tok::kPlusAssign) ||
      Check(Tok::kMinusAssign)) {
    Tok op = Advance().tok;
    int line = Peek().line;
    KS_ASSIGN_OR_RETURN(Expr* rhs, ParseAssign());
    return NewExpr(Expr::Kind::kAssign, line, lhs, rhs, op);
  }
  return lhs;
}

ks::Result<Expr*> Parser::ParseBinary(int min_prec) {
  KS_ASSIGN_OR_RETURN(Expr* lhs, ParseUnary());
  for (int prec = Precedence(Peek().tok); prec >= min_prec;
       prec = Precedence(Peek().tok)) {
    Tok op = Advance().tok;
    int line = Peek().line;
    KS_ASSIGN_OR_RETURN(Expr* rhs, ParseBinary(prec + 1));
    lhs = Fold(op, lhs, rhs, line);
  }
  return lhs;
}

ks::Result<Expr*> Parser::ParseUnary() {
  int line = Peek().line;
  if (Check(Tok::kMinus) || Check(Tok::kNot) || Check(Tok::kTilde) ||
      Check(Tok::kStar) || Check(Tok::kAmp)) {
    Tok op = Advance().tok;
    KS_ASSIGN_OR_RETURN(Expr* operand, ParseUnary());
    if (operand->kind == Expr::Kind::kIntLit && op != Tok::kStar &&
        op != Tok::kAmp) {
      int64_t v = operand->int_value;
      operand->int_value = op == Tok::kMinus ? -v
                           : op == Tok::kNot ? (v == 0 ? 1 : 0)
                                             : static_cast<int32_t>(~v);
      return operand;
    }
    return NewExpr(Expr::Kind::kUnary, line, operand, nullptr, op);
  }
  // Cast: "(" type ")" unary
  if (Check(Tok::kLParen) && IsTypeKeyword(Peek(1).tok)) {
    Match(Tok::kLParen);
    KS_ASSIGN_OR_RETURN(const Type* type, ParseType());
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    KS_ASSIGN_OR_RETURN(Expr* operand, ParseUnary());
    Expr* e = NewExpr(Expr::Kind::kCast, line, operand);
    e->type = type;
    return e;
  }
  if (Match(Tok::kSizeof)) {
    KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
    KS_ASSIGN_OR_RETURN(const Type* type, ParseType());
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    Expr* e = NewExpr(Expr::Kind::kSizeof, line);
    e->type = type;
    return e;
  }
  return ParsePostfix();
}

ks::Result<Expr*> Parser::ParsePostfix() {
  KS_ASSIGN_OR_RETURN(Expr* expr, ParsePrimary());
  while (true) {
    int line = Peek().line;
    if (Match(Tok::kLBracket)) {
      KS_ASSIGN_OR_RETURN(Expr* index, ParseExpr());
      KS_RETURN_IF_ERROR(Expect(Tok::kRBracket));
      expr = NewExpr(Expr::Kind::kIndex, line, expr, index);
    } else if (Check(Tok::kDot) || Check(Tok::kArrow)) {
      Expr::Kind kind = Advance().tok == Tok::kDot ? Expr::Kind::kMember
                                                   : Expr::Kind::kArrow;
      KS_ASSIGN_OR_RETURN(std::string_view member, ExpectIdent());
      expr = NewExpr(kind, line, expr);
      expr->name = member;
    } else if (Check(Tok::kInc) || Check(Tok::kDec)) {
      Tok op = Advance().tok;
      expr = NewExpr(Expr::Kind::kPostIncDec, line, expr, nullptr, op);
    } else {
      return expr;
    }
  }
}

ks::Result<Expr*> Parser::ParsePrimary() {
  int line = Peek().line;
  if (Peek().kind == TokKind::kIntLit || Peek().kind == TokKind::kCharLit) {
    Expr* e = NewExpr(Expr::Kind::kIntLit, line);
    e->int_value = Advance().int_value;
    return e;
  }
  if (Peek().kind == TokKind::kStrLit) {
    Expr* e = NewExpr(Expr::Kind::kStrLit, line);
    e->str_value = CopyString(Advance().str_value);
    return e;
  }
  if (Match(Tok::kLParen)) {
    KS_ASSIGN_OR_RETURN(Expr* inner, ParseExpr());
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    return inner;
  }
  if (Peek().kind == TokKind::kIdent) {
    const bool call = Peek(1).tok == Tok::kLParen;
    Expr* e = NewExpr(call ? Expr::Kind::kCall : Expr::Kind::kVar, line);
    e->name = Advance().ident;
    e->slot = Lookup(e->name);
    if (call && function_ != nullptr && e->name == function_->name) {
      function_->is_recursive = true;
    }
    if (Match(Tok::kLParen)) {
      const size_t from = exprs_.size();
      if (!Check(Tok::kRParen)) {
        while (true) {
          KS_ASSIGN_OR_RETURN(const Expr* arg, ParseExpr());
          exprs_.push_back(arg);
          if (!Match(Tok::kComma)) {
            break;
          }
        }
      }
      KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
      e->args = Take(exprs_, from);
    }
    return e;
  }
  return Error("unexpected token " + Quoted());
}

}  // namespace

ks::Result<Unit> Parse(std::string text, std::string unit_name) {
  Unit unit(std::move(unit_name), std::move(text));
  KS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(unit.text(), unit.name));
  KS_RETURN_IF_ERROR(Parser(tokens, unit).Run());
  return unit;
}

ks::Result<Unit> ParseSource(std::string_view source, std::string unit_name) {
  return Parse(std::string(source), std::move(unit_name));
}

}  // namespace kcc
