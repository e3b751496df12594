#include "kcc/parser.h"

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
  Parser(const std::vector<Token>& tokens, std::string unit_name)
      : tokens_(tokens), unit_name_(std::move(unit_name)) {}

  ks::Result<Unit> Run();

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
    return ks::InvalidArgument(ks::StrPrintf("%s:%d: %s", unit_name_.c_str(),
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
  ks::Result<std::string> ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) {
      return Error("expected identifier, got " + Quoted());
    }
    return std::string(Advance().ident);
  }

  // Types ----------------------------------------------------------------
  static bool IsTypeKeyword(Tok tok) {
    return tok == Tok::kInt || tok == Tok::kChar || tok == Tok::kVoid ||
           tok == Tok::kStruct;
  }
  bool AtTypeStart() const { return IsTypeKeyword(Peek().tok); }
  ks::Result<TypeRef> ParseBaseType();
  ks::Result<TypeRef> ParseType() {  // a base type, then any '*'s
    KS_ASSIGN_OR_RETURN(TypeRef type, ParseBaseType());
    while (Match(Tok::kStar)) {
      type = Type::PointerTo(std::move(type));
    }
    return type;
  }
  // `type`, or an array of it when "[" INT "]" follows.
  ks::Result<TypeRef> ParseFixedArray(TypeRef type);

  // Top level -------------------------------------------------------------
  ks::Status ParseTop(Unit& unit);
  ks::Status ParseStructDef(Unit& unit);
  ks::Status ParseHook(Unit& unit);
  ks::Status ParseFunctionRest(Unit& unit, TypeRef ret, std::string name,
                               bool is_static, bool is_inline, int line);
  ks::Status ParseGlobalRest(Unit& unit, TypeRef type, std::string name,
                             bool is_static, bool is_extern, int line);
  ks::Result<std::vector<InitElem>> ParseInitializer(const TypeRef& type);
  ks::Result<InitElem> ParseInitElem();

  // Statements ------------------------------------------------------------
  ks::Result<StmtPtr> ParseStmt();
  ks::Result<StmtPtr> ParseBlock();

  // Expressions -----------------------------------------------------------
  ks::Result<ExprPtr> ParseExpr() { return ParseAssign(); }
  ks::Result<ExprPtr> ParseAssign();
  ks::Result<ExprPtr> ParseBinary(int min_prec);
  ks::Result<ExprPtr> ParseUnary();
  ks::Result<ExprPtr> ParsePostfix();
  ks::Result<ExprPtr> ParsePrimary();

  const std::vector<Token>& tokens_;
  std::string unit_name_;
  size_t pos_ = 0;
};

ks::Result<TypeRef> Parser::ParseBaseType() {
  if (Match(Tok::kInt)) {
    return Type::Int();
  }
  if (Match(Tok::kChar)) {
    return Type::Char();
  }
  if (Match(Tok::kVoid)) {
    return Type::Void();
  }
  if (Match(Tok::kStruct)) {
    KS_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    return Type::Struct(std::move(name));
  }
  return Error("expected type");
}

ks::Result<TypeRef> Parser::ParseFixedArray(TypeRef type) {
  if (!Match(Tok::kLBracket)) {
    return type;
  }
  if (Peek().kind != TokKind::kIntLit) {
    return Error("expected array length");
  }
  int len = static_cast<int>(Advance().int_value);
  KS_RETURN_IF_ERROR(Expect(Tok::kRBracket));
  return Type::ArrayOf(std::move(type), len);
}

ks::Result<Unit> Parser::Run() {
  Unit unit;
  unit.name = unit_name_;
  while (!AtEof()) {
    KS_RETURN_IF_ERROR(ParseTop(unit));
  }
  return unit;
}

ks::Status Parser::ParseTop(Unit& unit) {
  // struct definition: "struct NAME {" (otherwise it's a type use).
  if (Check(Tok::kStruct) && Peek(1).kind == TokKind::kIdent &&
      Peek(2).tok == Tok::kLBrace) {
    return ParseStructDef(unit);
  }
  // ksplice hook.
  if (Peek().kind == TokKind::kIdent) {
    for (std::string_view hook : kHookNames) {
      if (Peek().ident == hook) {
        return ParseHook(unit);
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
  KS_ASSIGN_OR_RETURN(TypeRef type, ParseType());
  KS_ASSIGN_OR_RETURN(std::string name, ExpectIdent());

  if (Check(Tok::kLParen)) {  // `extern` on a prototype is redundant
    return ParseFunctionRest(unit, std::move(type), std::move(name),
                             is_static, is_inline, line);
  }
  if (is_inline) {
    return Error("'inline' is only valid on functions");
  }
  return ParseGlobalRest(unit, std::move(type), std::move(name), is_static,
                         is_extern, line);
}

ks::Status Parser::ParseStructDef(Unit& unit) {
  Match(Tok::kStruct);
  KS_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
  int line = Peek().line;
  KS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
  StructDef def{std::move(name), {}, line};
  while (!Match(Tok::kRBrace)) {
    KS_ASSIGN_OR_RETURN(TypeRef type, ParseType());
    KS_ASSIGN_OR_RETURN(std::string field, ExpectIdent());
    KS_ASSIGN_OR_RETURN(type, ParseFixedArray(std::move(type)));
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    def.fields.push_back(StructField{std::move(type), std::move(field)});
  }
  KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
  if (def.fields.empty()) {
    return Error("empty struct");
  }
  for (const StructDef& existing : unit.structs) {
    if (existing.name == def.name) {
      return Error(ks::StrPrintf("duplicate struct '%s'", def.name.c_str()));
    }
  }
  unit.structs.push_back(std::move(def));
  return ks::OkStatus();
}

ks::Status Parser::ParseHook(Unit& unit) {
  std::string_view spelling = Advance().ident;
  KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
  KS_ASSIGN_OR_RETURN(std::string func, ExpectIdent());
  KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
  KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
  unit.hooks.push_back(KspliceHook{
      std::string(spelling.substr(std::string_view("ksplice_").size())),
      std::move(func), Peek().line});
  return ks::OkStatus();
}

ks::Status Parser::ParseFunctionRest(Unit& unit, TypeRef ret,
                                     std::string name, bool is_static,
                                     bool is_inline, int line) {
  KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
  FuncDecl fn;
  fn.ret = std::move(ret);
  fn.name = std::move(name);
  fn.is_static = is_static;
  fn.is_inline_kw = is_inline;
  fn.line = line;

  if (Check(Tok::kVoid) && Peek(1).tok == Tok::kRParen) {
    Advance();  // (void): no parameters
  } else if (!Check(Tok::kRParen)) {
    while (true) {
      KS_ASSIGN_OR_RETURN(TypeRef type, ParseType());
      if (type->kind == Type::Kind::kVoid) {
        return Error("parameter of type void");
      }
      // Prototypes may omit parameter names.
      std::string pname;
      if (Peek().kind == TokKind::kIdent) {
        pname = std::string(Advance().ident);
      }
      if (Match(Tok::kLBracket)) {
        KS_RETURN_IF_ERROR(Expect(Tok::kRBracket));
        type = Type::PointerTo(std::move(type));  // array param decays
      }
      fn.params.push_back(ParamDecl{std::move(type), std::move(pname)});
      if (!Match(Tok::kComma)) {
        break;
      }
    }
  }
  KS_RETURN_IF_ERROR(Expect(Tok::kRParen));

  if (Match(Tok::kSemi)) {
    fn.is_definition = false;
    unit.functions.push_back(std::move(fn));
    return ks::OkStatus();
  }
  KS_ASSIGN_OR_RETURN(fn.body, ParseBlock());
  fn.is_definition = true;
  fn.body_size = CountStmtNodes(*fn.body);
  unit.functions.push_back(std::move(fn));
  return ks::OkStatus();
}

ks::Status Parser::ParseGlobalRest(Unit& unit, TypeRef type, std::string name,
                                   bool is_static, bool is_extern, int line) {
  GlobalDecl decl;
  decl.is_static = is_static;
  decl.is_extern = is_extern;
  decl.line = line;

  if (Match(Tok::kLBracket)) {
    int len = -1;  // inferred from initializer
    if (Peek().kind == TokKind::kIntLit) {
      len = static_cast<int>(Advance().int_value);
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kRBracket));
    type = Type::ArrayOf(std::move(type), len);
  }
  decl.type = std::move(type);
  decl.name = std::move(name);

  if (Match(Tok::kAssign)) {
    if (decl.is_extern) {
      return Error("extern declaration with initializer");
    }
    KS_ASSIGN_OR_RETURN(decl.init, ParseInitializer(decl.type));
    decl.has_init = true;
  }
  KS_RETURN_IF_ERROR(Expect(Tok::kSemi));

  // Fix inferred array lengths.
  if (decl.type->IsArray() && decl.type->array_len < 0) {
    if (!decl.has_init) {
      return Error(ks::StrPrintf("array '%s' has no size",
                                 decl.name.c_str()));
    }
    int len = 0;
    for (const InitElem& elem : decl.init) {
      len += elem.kind == InitElem::Kind::kStr
                 ? static_cast<int>(elem.str_value.size()) + 1
                 : 1;
    }
    decl.type = Type::ArrayOf(decl.type->pointee, len);
  }
  unit.globals.push_back(std::move(decl));
  return ks::OkStatus();
}

ks::Result<InitElem> Parser::ParseInitElem() {
  InitElem elem;
  if (Peek().kind == TokKind::kStrLit) {
    elem.kind = InitElem::Kind::kStr;
    elem.str_value = Advance().str_value;
    return elem;
  }
  // Symbol reference: bare identifier or &identifier.
  if (Peek().kind == TokKind::kIdent ||
      (Check(Tok::kAmp) && Peek(1).kind == TokKind::kIdent)) {
    Match(Tok::kAmp);
    elem.kind = InitElem::Kind::kSym;
    elem.symbol = std::string(Advance().ident);
    return elem;
  }
  // Constant expression: parse and fold.
  KS_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
  if (expr->kind != Expr::Kind::kIntLit) {
    return Error("initializer is not a constant");
  }
  elem.kind = InitElem::Kind::kInt;
  elem.int_value = expr->int_value;
  return elem;
}

ks::Result<std::vector<InitElem>> Parser::ParseInitializer(
    const TypeRef& type) {
  std::vector<InitElem> elems;
  if (Match(Tok::kLBrace)) {
    if (!type->IsArray()) {
      return Error("brace initializer on non-array");
    }
    while (!Check(Tok::kRBrace)) {
      KS_ASSIGN_OR_RETURN(InitElem elem, ParseInitElem());
      elems.push_back(std::move(elem));
      if (!Match(Tok::kComma)) {
        break;
      }
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kRBrace));
    return elems;
  }
  KS_ASSIGN_OR_RETURN(InitElem elem, ParseInitElem());
  elems.push_back(std::move(elem));
  return elems;
}

// -------------------------------------------------------------------------
// Statements

ks::Result<StmtPtr> Parser::ParseBlock() {
  KS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
  auto block = std::make_unique<Stmt>();
  block->kind = Stmt::Kind::kBlock;
  block->line = Peek().line;
  while (!Match(Tok::kRBrace)) {
    if (AtEof()) {
      return Error("unterminated block");
    }
    KS_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStmt());
    block->stmts.push_back(std::move(stmt));
  }
  return block;
}

ks::Result<StmtPtr> Parser::ParseStmt() {
  auto stmt = std::make_unique<Stmt>();
  stmt->line = Peek().line;

  if (Check(Tok::kLBrace)) {
    return ParseBlock();
  }
  if (Match(Tok::kSemi)) {
    stmt->kind = Stmt::Kind::kEmpty;
    return stmt;
  }
  if (Check(Tok::kIf) || Check(Tok::kWhile)) {
    const bool is_if = Advance().tok == Tok::kIf;
    stmt->kind = is_if ? Stmt::Kind::kIf : Stmt::Kind::kWhile;
    KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
    KS_ASSIGN_OR_RETURN(stmt->cond, ParseExpr());
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    StmtPtr& body = is_if ? stmt->then_body : stmt->body;
    KS_ASSIGN_OR_RETURN(body, ParseStmt());
    if (is_if && Match(Tok::kElse)) {
      KS_ASSIGN_OR_RETURN(stmt->else_body, ParseStmt());
    }
    return stmt;
  }
  if (Match(Tok::kFor)) {
    stmt->kind = Stmt::Kind::kFor;
    KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
    if (!Match(Tok::kSemi)) {
      KS_ASSIGN_OR_RETURN(stmt->init_stmt, ParseStmt());  // consumes ';'
    }
    if (!Check(Tok::kSemi)) {
      KS_ASSIGN_OR_RETURN(stmt->cond, ParseExpr());
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    if (!Check(Tok::kRParen)) {
      KS_ASSIGN_OR_RETURN(stmt->step, ParseExpr());
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    KS_ASSIGN_OR_RETURN(stmt->body, ParseStmt());
    return stmt;
  }
  if (Match(Tok::kReturn)) {
    stmt->kind = Stmt::Kind::kReturn;
    if (!Check(Tok::kSemi)) {
      KS_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    return stmt;
  }
  if (Check(Tok::kBreak) || Check(Tok::kContinue)) {
    stmt->kind = Advance().tok == Tok::kBreak ? Stmt::Kind::kBreak
                                              : Stmt::Kind::kContinue;
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    return stmt;
  }

  // Local declaration?
  bool is_static_local = Match(Tok::kStatic);
  if (AtTypeStart()) {
    stmt->kind = Stmt::Kind::kDecl;
    stmt->is_static_local = is_static_local;
    KS_ASSIGN_OR_RETURN(TypeRef type, ParseType());
    KS_ASSIGN_OR_RETURN(stmt->decl_name, ExpectIdent());
    KS_ASSIGN_OR_RETURN(type, ParseFixedArray(std::move(type)));
    stmt->decl_type = std::move(type);
    if (Match(Tok::kAssign)) {
      KS_ASSIGN_OR_RETURN(stmt->init, ParseExpr());
    }
    KS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    return stmt;
  }
  if (is_static_local) {
    return Error("expected declaration after 'static'");
  }

  stmt->kind = Stmt::Kind::kExpr;
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

// A new expression node.
ExprPtr NewExpr(Expr::Kind kind, int line, ExprPtr lhs = nullptr,
                ExprPtr rhs = nullptr, Tok op = Tok::kNone) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->line = line;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

// Folds a binary op over constants; used opportunistically so that trivial
// arithmetic does not inflate AST size (and thus inlining decisions).
ExprPtr TryFold(Tok op, ExprPtr lhs, ExprPtr rhs, int line) {
  auto make = [&](int64_t v) {
    ExprPtr e = NewExpr(Expr::Kind::kIntLit, line);
    e->int_value = static_cast<int32_t>(v);
    return e;
  };
  if (lhs->kind == Expr::Kind::kIntLit && rhs->kind == Expr::Kind::kIntLit) {
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
  return NewExpr(Expr::Kind::kBinary, line, std::move(lhs), std::move(rhs),
                 op);
}

}  // namespace

ks::Result<ExprPtr> Parser::ParseAssign() {
  KS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseBinary(1));
  if (Check(Tok::kAssign) || Check(Tok::kPlusAssign) ||
      Check(Tok::kMinusAssign)) {
    Tok op = Advance().tok;
    int line = Peek().line;
    KS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAssign());
    return NewExpr(Expr::Kind::kAssign, line, std::move(lhs), std::move(rhs),
                   op);
  }
  return lhs;
}

ks::Result<ExprPtr> Parser::ParseBinary(int min_prec) {
  KS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  for (int prec = Precedence(Peek().tok); prec >= min_prec;
       prec = Precedence(Peek().tok)) {
    Tok op = Advance().tok;
    int line = Peek().line;
    KS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseBinary(prec + 1));
    lhs = TryFold(op, std::move(lhs), std::move(rhs), line);
  }
  return lhs;
}

ks::Result<ExprPtr> Parser::ParseUnary() {
  int line = Peek().line;
  if (Check(Tok::kMinus) || Check(Tok::kNot) || Check(Tok::kTilde) ||
      Check(Tok::kStar) || Check(Tok::kAmp)) {
    Tok op = Advance().tok;
    KS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    if (operand->kind == Expr::Kind::kIntLit && op != Tok::kStar &&
        op != Tok::kAmp) {
      int64_t v = operand->int_value;
      operand->int_value = op == Tok::kMinus ? -v
                           : op == Tok::kNot ? (v == 0 ? 1 : 0)
                                             : static_cast<int32_t>(~v);
      return operand;
    }
    return NewExpr(Expr::Kind::kUnary, line, std::move(operand), nullptr, op);
  }
  // Cast: "(" type ")" unary
  if (Check(Tok::kLParen) && IsTypeKeyword(Peek(1).tok)) {
    Match(Tok::kLParen);
    KS_ASSIGN_OR_RETURN(TypeRef type, ParseType());
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    KS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    ExprPtr e = NewExpr(Expr::Kind::kCast, line, std::move(operand));
    e->cast_type = std::move(type);
    return e;
  }
  if (Match(Tok::kSizeof)) {
    KS_RETURN_IF_ERROR(Expect(Tok::kLParen));
    KS_ASSIGN_OR_RETURN(TypeRef type, ParseType());
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    ExprPtr e = NewExpr(Expr::Kind::kSizeof, line);
    e->sizeof_type = std::move(type);
    return e;
  }
  return ParsePostfix();
}

ks::Result<ExprPtr> Parser::ParsePostfix() {
  KS_ASSIGN_OR_RETURN(ExprPtr expr, ParsePrimary());
  while (true) {
    int line = Peek().line;
    if (Match(Tok::kLBracket)) {
      KS_ASSIGN_OR_RETURN(ExprPtr index, ParseExpr());
      KS_RETURN_IF_ERROR(Expect(Tok::kRBracket));
      expr = NewExpr(Expr::Kind::kIndex, line, std::move(expr),
                     std::move(index));
    } else if (Check(Tok::kDot) || Check(Tok::kArrow)) {
      Expr::Kind kind = Advance().tok == Tok::kDot ? Expr::Kind::kMember
                                                   : Expr::Kind::kArrow;
      KS_ASSIGN_OR_RETURN(std::string member, ExpectIdent());
      expr = NewExpr(kind, line, std::move(expr));
      expr->member = std::move(member);
    } else if (Check(Tok::kInc) || Check(Tok::kDec)) {
      Tok op = Advance().tok;
      expr = NewExpr(Expr::Kind::kPostIncDec, line, std::move(expr), nullptr,
                     op);
    } else {
      return expr;
    }
  }
}

ks::Result<ExprPtr> Parser::ParsePrimary() {
  int line = Peek().line;
  if (Peek().kind == TokKind::kIntLit || Peek().kind == TokKind::kCharLit) {
    ExprPtr e = NewExpr(Expr::Kind::kIntLit, line);
    e->int_value = Advance().int_value;
    return e;
  }
  if (Peek().kind == TokKind::kStrLit) {
    ExprPtr e = NewExpr(Expr::Kind::kStrLit, line);
    e->str_value = Advance().str_value;
    return e;
  }
  if (Match(Tok::kLParen)) {
    KS_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
    KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    return inner;
  }
  if (Peek().kind == TokKind::kIdent) {
    const bool call = Peek(1).tok == Tok::kLParen;
    ExprPtr e = NewExpr(call ? Expr::Kind::kCall : Expr::Kind::kVar, line);
    e->name = std::string(Advance().ident);
    if (Match(Tok::kLParen)) {
      if (!Check(Tok::kRParen)) {
        while (true) {
          KS_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          e->args.push_back(std::move(arg));
          if (!Match(Tok::kComma)) {
            break;
          }
        }
      }
      KS_RETURN_IF_ERROR(Expect(Tok::kRParen));
    }
    return e;
  }
  return Error("unexpected token " + Quoted());
}

}  // namespace

ks::Result<Unit> Parse(const std::vector<Token>& tokens,
                       std::string unit_name) {
  Parser parser(tokens, std::move(unit_name));
  return parser.Run();
}

ks::Result<Unit> ParseSource(std::string_view source, std::string unit_name) {
  KS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source, unit_name));
  return Parse(tokens, std::move(unit_name));
}

}  // namespace kcc
