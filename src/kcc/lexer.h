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
#include <string_view>
#include <vector>

#include "base/status.h"

namespace kcc {

enum class TokKind : uint8_t {
  kEof,
  kIdent,
  kIntLit,
  kCharLit,
  kStrLit,
  kPunct,    // operators and punctuation, which one in `tok`
  kKeyword,  // int, char, void, struct, if, ... which one in `tok`
};

// Every punctuator and keyword. The parser tests tokens by this enum, and
// expressions carry their operator as one.
enum class Tok : uint8_t {
  kNone,  // an identifier, literal or end of input
  // Punctuators: two characters; one that may start two; one that cannot.
  kShl, kShr, kLe, kGe, kEq, kNe, kAndAnd, kOrOr, kPlusAssign, kMinusAssign,
  kArrow, kInc, kDec,
  kPlus, kMinus, kAmp, kPipe, kNot, kLt, kGt, kAssign,
  kStar, kSlash, kPercent, kCaret, kTilde, kLParen, kRParen, kLBrace,
  kRBrace, kLBracket, kRBracket, kSemi, kComma, kDot,
  // Keywords.
  kInt, kChar, kVoid, kStruct, kStatic, kInline, kExtern, kIf, kElse, kWhile,
  kFor, kReturn, kBreak, kContinue, kSizeof,
};

// The source spelling of a punctuator or keyword; "" for Tok::kNone.
std::string_view Spelling(Tok tok);

struct Token {
  TokKind kind = TokKind::kEof;
  Tok tok = Tok::kNone;   // kPunct / kKeyword
  int line = 0;
  std::string_view ident;  // kIdent, kKeyword: a view into the source
  int64_t int_value = 0;   // kIntLit / kCharLit
  std::string str_value;   // kStrLit (unescaped, no quotes)
};

// Tokenizes `source`. `file` is used in error messages only. Identifier
// tokens point into `source`, which must outlive them.
ks::Result<std::vector<Token>> Lex(std::string_view source,
                                   const std::string& file);

}  // namespace kcc

#endif  // KSPLICE_KCC_LEXER_H_
