#include "kcc/ast.h"

namespace kcc {

namespace {

TypeRef MakeType(Type::Kind kind) {
  auto t = std::make_shared<Type>();
  t->kind = kind;
  return t;
}

}  // namespace

TypeRef Type::Void() {
  static const TypeRef t = MakeType(Kind::kVoid);
  return t;
}

TypeRef Type::Int() {
  static const TypeRef t = MakeType(Kind::kInt);
  return t;
}

TypeRef Type::Char() {
  static const TypeRef t = MakeType(Kind::kChar);
  return t;
}

TypeRef Type::PointerTo(TypeRef pointee) {
  auto t = std::make_shared<Type>();
  t->kind = Kind::kPointer;
  t->pointee = std::move(pointee);
  return t;
}

TypeRef Type::ArrayOf(TypeRef element, int len) {
  auto t = std::make_shared<Type>();
  t->kind = Kind::kArray;
  t->pointee = std::move(element);
  t->array_len = len;
  return t;
}

TypeRef Type::Struct(std::string name) {
  auto t = std::make_shared<Type>();
  t->kind = Kind::kStruct;
  t->struct_name = std::move(name);
  return t;
}

std::string Type::ToString() const {
  switch (kind) {
    case Kind::kVoid:
      return "void";
    case Kind::kInt:
      return "int";
    case Kind::kChar:
      return "char";
    case Kind::kPointer:
      return pointee->ToString() + "*";
    case Kind::kArray:
      return pointee->ToString() + "[" + std::to_string(array_len) + "]";
    case Kind::kStruct:
      return "struct " + struct_name;
  }
  return "?";
}

namespace {

void ForEachExpr(const Expr& expr,
                 const std::function<void(const Expr&)>& on_expr) {
  on_expr(expr);
  for (const Expr* child : {expr.lhs.get(), expr.rhs.get()}) {
    if (child != nullptr) {
      ForEachExpr(*child, on_expr);
    }
  }
  for (const ExprPtr& arg : expr.args) {
    ForEachExpr(*arg, on_expr);
  }
}

}  // namespace

void ForEachNode(const Stmt& stmt,
                 const std::function<void(const Stmt&)>& on_stmt,
                 const std::function<void(const Expr&)>& on_expr) {
  on_stmt(stmt);
  for (const Expr* expr :
       {stmt.expr.get(), stmt.init.get(), stmt.cond.get(), stmt.step.get()}) {
    if (expr != nullptr) {
      ForEachExpr(*expr, on_expr);
    }
  }
  for (const Stmt* child :
       {stmt.init_stmt.get(), stmt.then_body.get(), stmt.else_body.get(),
        stmt.body.get()}) {
    if (child != nullptr) {
      ForEachNode(*child, on_stmt, on_expr);
    }
  }
  for (const StmtPtr& child : stmt.stmts) {
    ForEachNode(*child, on_stmt, on_expr);
  }
}

int CountStmtNodes(const Stmt& stmt) {
  int count = 0;
  ForEachNode(
      stmt, [&count](const Stmt&) { ++count; },
      [&count](const Expr&) { ++count; });
  return count;
}

}  // namespace kcc
