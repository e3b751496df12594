// AST for KC, the C subset compiled by kcc.
//
// The AST is deliberately plain: tagged structs with owned children. Types
// are structural except structs, which are referenced by name and resolved
// against the unit's struct table during code generation (this permits
// self-referential structs through pointers).

#ifndef KSPLICE_KCC_AST_H_
#define KSPLICE_KCC_AST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kcc/lexer.h"

namespace kcc {

// ---------------------------------------------------------------------
// Types

struct Type;
using TypeRef = std::shared_ptr<const Type>;

struct Type {
  enum class Kind { kVoid, kInt, kChar, kPointer, kArray, kStruct };
  Kind kind = Kind::kInt;
  TypeRef pointee;          // kPointer / kArray element type
  int array_len = 0;        // kArray
  std::string struct_name;  // kStruct

  static TypeRef Void();
  static TypeRef Int();
  static TypeRef Char();
  static TypeRef PointerTo(TypeRef pointee);
  static TypeRef ArrayOf(TypeRef element, int len);
  static TypeRef Struct(std::string name);

  bool IsChar() const { return kind == Kind::kChar; }
  bool IsPointer() const { return kind == Kind::kPointer; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsStruct() const { return kind == Kind::kStruct; }
  bool IsScalar() const {
    return kind == Kind::kInt || kind == Kind::kChar ||
           kind == Kind::kPointer;
  }

  // Human-readable spelling for diagnostics.
  std::string ToString() const;
};

// ---------------------------------------------------------------------
// Expressions

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind {
    kIntLit,     // int_value
    kStrLit,     // str_value
    kVar,        // name (variable, or function designator yielding address)
    kUnary,      // op in {-, !, ~, *, &}; child lhs
    kBinary,     // op arithmetic/comparison/logical; children lhs, rhs
    kAssign,     // op in {=, +=, -=}; children lhs, rhs
    kPostIncDec, // op in {++, --}; child lhs
    kCall,       // name = callee, args
    kIndex,      // lhs [ rhs ]
    kMember,     // lhs . member
    kArrow,      // lhs -> member
    kSizeof,     // sizeof_type
    kCast,       // (cast_type) lhs
  };
  Kind kind = Kind::kIntLit;
  int line = 0;

  int64_t int_value = 0;
  std::string str_value;
  std::string name;
  Tok op = Tok::kNone;  // the operator's punctuator
  std::string member;
  ExprPtr lhs;
  ExprPtr rhs;
  std::vector<ExprPtr> args;
  TypeRef sizeof_type;
  TypeRef cast_type;
};

// ---------------------------------------------------------------------
// Statements

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind {
    kExpr,      // expr;
    kDecl,      // [static] type name [= init];
    kIf,        // if (cond) then_body [else else_body]
    kWhile,     // while (cond) body
    kFor,       // for (init; cond; step) body
    kReturn,    // return [expr];
    kBreak,
    kContinue,
    kBlock,     // { stmts... }
    kEmpty,
  };
  Kind kind = Kind::kEmpty;
  int line = 0;

  ExprPtr expr;  // kExpr payload; kReturn value (may be null)
  // kDecl:
  TypeRef decl_type;
  std::string decl_name;
  ExprPtr init;
  bool is_static_local = false;
  // kIf / kWhile / kFor:
  ExprPtr cond;
  StmtPtr init_stmt;  // kFor
  ExprPtr step;       // kFor
  StmtPtr then_body;
  StmtPtr else_body;
  StmtPtr body;
  // kBlock:
  std::vector<StmtPtr> stmts;
};

// ---------------------------------------------------------------------
// Top-level declarations

struct StructField {
  TypeRef type;
  std::string name;
};

struct StructDef {
  std::string name;
  std::vector<StructField> fields;
  int line = 0;
};

// One element of a global initializer after flattening: a constant, a
// symbol address (+addend), or raw string bytes.
struct InitElem {
  enum class Kind { kInt, kSym, kStr };
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  std::string symbol;
  std::string str_value;
};

struct GlobalDecl {
  TypeRef type;
  std::string name;
  bool is_static = false;
  bool is_extern = false;  // declaration only; storage elsewhere
  bool has_init = false;
  std::vector<InitElem> init;
  int line = 0;
};

struct ParamDecl {
  TypeRef type;
  std::string name;
};

struct FuncDecl {
  TypeRef ret;
  std::string name;
  std::vector<ParamDecl> params;
  bool is_static = false;
  bool is_inline_kw = false;  // `inline` keyword present (a hint only;
                              // kcc inlines by size, like gcc — §4.2)
  bool is_definition = false;
  StmtPtr body;
  int line = 0;
  int body_size = 0;  // AST node count, input to the inlining heuristic
};

// ksplice_apply(fn); and friends at file scope (§5.3).
struct KspliceHook {
  std::string kind;  // "apply", "pre_apply", "post_apply", "reverse",
                     // "pre_reverse", "post_reverse"
  std::string func;
  int line = 0;
};

// A parsed compilation unit.
struct Unit {
  std::string name;  // e.g. "drivers/dvb/dst_ca.kc"
  std::vector<StructDef> structs;
  std::vector<GlobalDecl> globals;    // in declaration order
  std::vector<FuncDecl> functions;    // prototypes and definitions, in order
  std::vector<KspliceHook> hooks;
};

// Calls on_stmt for `stmt` and every statement nested in it, and on_expr
// for every expression they hold, subexpressions included.
void ForEachNode(const Stmt& stmt,
                 const std::function<void(const Stmt&)>& on_stmt,
                 const std::function<void(const Expr&)>& on_expr);

// Counts AST nodes in a statement subtree (inlining heuristic input).
int CountStmtNodes(const Stmt& stmt);

}  // namespace kcc

#endif  // KSPLICE_KCC_AST_H_
