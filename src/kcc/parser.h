// Recursive-descent parser for KC.
//
// Grammar (C subset):
//   unit        := top*
//   top         := struct_def | ksplice_hook | decl
//   struct_def  := "struct" IDENT "{" (type declarator ";")+ "}" ";"
//   ksplice_hook:= ("ksplice_apply" | "ksplice_pre_apply" | ...) "(" IDENT ")" ";"
//   decl        := quals type "*"* IDENT (func_rest | array_suffix global_rest)
//   quals       := ("static" | "extern" | "inline")*
//   func_rest   := "(" params ")" (";" | block)
//   global_rest := ("=" initializer)? ";"
//   initializer := const_expr | STRING | "{" init_elem ("," init_elem)* "}"
//
// Statements: blocks, if/else, while, for, return, break, continue, local
// declarations (with optional `static`), expression statements.
// Expressions: assignment (=, +=, -=), ||, &&, |, ^, &, ==/!=, relational,
// shifts, additive, multiplicative, unary (- ! ~ * &), casts, sizeof,
// postfix (call, index, ., ->, ++/--).

#ifndef KSPLICE_KCC_PARSER_H_
#define KSPLICE_KCC_PARSER_H_

#include <string>
#include <string_view>

#include "base/status.h"
#include "kcc/ast.h"

namespace kcc {

// Lexes and parses `text`, the preprocessed source of the unit named
// `unit_name` (it becomes the object file's source_name). The Unit takes
// the text; its names are views into it.
ks::Result<Unit> Parse(std::string text, std::string unit_name);

// Parse over a copy of `source`.
ks::Result<Unit> ParseSource(std::string_view source, std::string unit_name);

}  // namespace kcc

#endif  // KSPLICE_KCC_PARSER_H_
