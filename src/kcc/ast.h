// AST for KC, the C subset compiled by kcc.
//
// A Unit owns what its nodes point at: one Storage that never moves holds
// the preprocessed text, which names are views into, and one arena, which
// holds every node, list, copied string literal and type. Nodes are
// trivially destructible, and moving a Unit moves one pointer. Types are
// interned per unit (TypeTable); structs are referenced by name and laid
// out by codegen, which permits self-referential structs through pointers.
// Locals are resolved to slots when the unit is parsed (see FuncDecl).

#ifndef KSPLICE_KCC_AST_H_
#define KSPLICE_KCC_AST_H_

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kcc/lexer.h"

namespace kcc {

// ---------------------------------------------------------------------
// Types

struct Type {
  enum class Kind : uint8_t { kVoid, kInt, kChar, kPointer, kArray, kStruct };
  Kind kind = Kind::kInt;
  int array_len = 0;              // kArray
  int struct_index = -1;          // kStruct: Unit::structs index, if parsed
  const Type* pointee = nullptr;  // kPointer / kArray element type
  std::string_view struct_name{};  // kStruct
  // PointerTo(this), once made; written only by the owning TypeTable.
  mutable const Type* pointer_to = nullptr;

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

// One unit's types. void, int and char are three immutable objects that
// every unit shares, so any thread may read them; every other type is made
// in the unit's arena, and never twice: PointerTo(t) returns one object per
// t and Struct(name) one per name.
class TypeTable {
 public:
  explicit TypeTable(std::pmr::memory_resource* arena)
      : arena_(arena), structs_(arena) {}

  static constexpr const Type* Void() { return &kVoid; }
  static constexpr const Type* Int() { return &kInt; }
  static constexpr const Type* Char() { return &kChar; }
  const Type* PointerTo(const Type* pointee);
  const Type* ArrayOf(const Type* element, int len);
  Type* Struct(std::string_view name);

 private:
  Type* Make(const Type& type);

  inline static const Type kVoid{.kind = Type::Kind::kVoid};
  inline static const Type kInt{.kind = Type::Kind::kInt};
  inline static const Type kChar{.kind = Type::Kind::kChar};

  std::pmr::memory_resource* arena_;
  const Type* base_pointers_[3] = {};  // PointerTo(void / int / char)
  std::pmr::vector<Type*> structs_;
};

// ---------------------------------------------------------------------
// Expressions

struct Expr {
  enum class Kind : uint8_t {
    kIntLit,     // int_value
    kStrLit,     // str_value
    kVar,        // name (variable, or function designator yielding address)
    kUnary,      // op in {-, !, ~, *, &}; child lhs
    kBinary,     // op arithmetic/comparison/logical; children lhs, rhs
    kAssign,     // op in {=, +=, -=}; children lhs, rhs
    kPostIncDec, // op in {++, --}; child lhs
    kCall,       // name = callee, args
    kIndex,      // lhs [ rhs ]
    kMember,     // lhs . name
    kArrow,      // lhs -> name
    kSizeof,     // type
    kCast,       // (type) lhs
  };
  Kind kind = Kind::kIntLit;
  Tok op = Tok::kNone;  // the operator's punctuator
  int line = 0;
  int slot = -1;  // kVar, kCall: the local `name` names, or -1

  int64_t int_value = 0;
  std::string_view str_value{};  // unescaped, in the arena
  std::string_view name{};  // identifier, member or callee
  const Expr* lhs = nullptr;
  const Expr* rhs = nullptr;
  std::span<const Expr* const> args{};
  const Type* type = nullptr;  // kSizeof, kCast
};

// ---------------------------------------------------------------------
// Statements

struct Stmt {
  enum class Kind : uint8_t {
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

  const Expr* expr = nullptr;  // kExpr payload; kReturn value (may be null)
  // kDecl:
  const Type* decl_type = nullptr;
  std::string_view decl_name{};
  const Expr* init = nullptr;
  int slot = -1;
  bool is_static_local = false;
  bool redeclares = false;  // names a local of the same scope again
  // kIf / kWhile / kFor:
  const Expr* cond = nullptr;
  const Stmt* init_stmt = nullptr;  // kFor
  const Expr* step = nullptr;       // kFor
  const Stmt* then_body = nullptr;
  const Stmt* else_body = nullptr;
  const Stmt* body = nullptr;
  // kBlock:
  std::span<const Stmt* const> stmts{};
};

// ---------------------------------------------------------------------
// Top-level declarations

// A struct field or a function parameter.
struct Declarator {
  const Type* type = nullptr;
  std::string_view name;
};

struct StructDef {
  std::string_view name;
  std::span<const Declarator> fields;
  int line = 0;
};

// One element of a global initializer after flattening: a constant, a
// symbol address (+addend), or raw string bytes.
struct InitElem {
  enum class Kind : uint8_t { kInt, kSym, kStr };
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  std::string_view symbol;
  std::string_view str_value;
};

struct GlobalDecl {
  const Type* type = nullptr;
  std::string_view name{};
  bool is_static = false;
  bool is_extern = false;  // declaration only; storage elsewhere
  bool has_init = false;
  std::span<const InitElem> init{};
  int line = 0;
};

struct FuncDecl {
  const Type* ret = nullptr;
  std::string_view name{};
  std::span<const Declarator> params{};
  bool is_static = false;
  bool is_inline_kw = false;  // `inline` keyword present (a hint only;
                              // kcc inlines by size, like gcc — §4.2)
  bool is_definition = false;
  // Inputs to the inlining heuristic, found while the body is parsed:
  bool is_recursive = false;      // the body calls `name` directly
  bool has_static_local = false;  // the body declares a static local
  int body_size = 0;              // AST nodes in the body
  // Parameters plus local declarations: parameter i has slot i, and each
  // declaration the next one.
  int slots = 0;
  const Stmt* body = nullptr;
  int line = 0;
};

// ksplice_apply(fn); and friends at file scope (§5.3).
struct KspliceHook {
  std::string_view kind;  // "apply", "pre_apply", "post_apply", "reverse",
                          // "pre_reverse", "post_reverse"
  std::string_view func;
  int line = 0;
};

// A parsed compilation unit.
struct Unit {
  // Takes the unit's preprocessed text; the parser fills in the rest.
  Unit(std::string unit_name, std::string text)
      : name(std::move(unit_name)), storage_(new Storage(std::move(text))) {}

  std::string name;  // e.g. "drivers/dvb/dst_ca.kc"
  std::span<const StructDef> structs;
  std::span<const GlobalDecl> globals;  // in declaration order
  std::span<const FuncDecl> functions;  // prototypes and definitions, in order
  std::span<const KspliceHook> hooks;

  std::string_view text() const { return storage_->text; }
  std::pmr::memory_resource* arena() const { return &storage_->arena; }
  // Code generation interns pointer types while it lowers the unit, so the
  // table grows behind a const Unit. One thread uses a Unit at a time.
  TypeTable& types() const { return storage_->types; }

 private:
  struct Storage {
    // The arena's first block is sized from the text; a corpus unit's AST
    // takes about twice its preprocessed text.
    explicit Storage(std::string source)
        : text(std::move(source)), arena(2 * text.size() + 1024) {}
    std::string text;
    std::pmr::monotonic_buffer_resource arena;
    TypeTable types{&arena};
  };
  std::unique_ptr<Storage> storage_;
};

}  // namespace kcc

#endif  // KSPLICE_KCC_AST_H_
