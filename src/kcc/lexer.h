// Lexer for KC, the kernel dialect compiled by kcc.
//
// KC is a small C subset: int/char scalars, pointers, arrays, structs,
// functions (with `static` and `inline`), file-scope and function-scope
// statics, string/char literals, and the usual statement and expression
// forms. See parser.h for the grammar.

#ifndef KSPLICE_KCC_LEXER_H_
#define KSPLICE_KCC_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"

namespace kcc {

enum class TokKind {
  kEof,
  kIdent,
  kIntLit,
  kCharLit,
  kStrLit,
  kPunct,    // operators and punctuation, text in `text`
  kKeyword,  // int, char, void, struct, if, ... text in `text`
};

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;     // identifier / punct / keyword spelling
  int64_t int_value = 0;  // kIntLit / kCharLit
  std::string str_value;  // kStrLit (unescaped, no quotes)
  int line = 0;
};

// Tokenizes `source`. `file` is used in error messages only.
ks::Result<std::vector<Token>> Lex(std::string_view source,
                                   const std::string& file);

}  // namespace kcc

#endif  // KSPLICE_KCC_LEXER_H_
