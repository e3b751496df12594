#include "kcc/ast.h"

#include <algorithm>

namespace kcc {

Type* TypeTable::Make(const Type& type) {
  return new (arena_->allocate(sizeof(Type), alignof(Type))) Type(type);
}

const Type* TypeTable::PointerTo(const Type* pointee) {
  // The shared constants are never written; their pointers live here.
  const Type*& memo = pointee->kind <= Type::Kind::kChar
                          ? base_pointers_[static_cast<int>(pointee->kind)]
                          : pointee->pointer_to;
  if (memo == nullptr) {
    memo = Make(Type{.kind = Type::Kind::kPointer, .pointee = pointee});
  }
  return memo;
}

const Type* TypeTable::ArrayOf(const Type* element, int len) {
  return Make(
      Type{.kind = Type::Kind::kArray, .array_len = len, .pointee = element});
}

Type* TypeTable::Struct(std::string_view name) {
  auto it = std::ranges::find(structs_, name, &Type::struct_name);
  return it != structs_.end()
             ? *it
             : structs_.emplace_back(Make(
                   Type{.kind = Type::Kind::kStruct, .struct_name = name}));
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
      return "struct " + std::string(struct_name);
  }
  return "?";
}

}  // namespace kcc
