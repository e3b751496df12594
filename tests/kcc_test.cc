// Tests for kcc: lexer, parser, preprocessor, and the code generator's
// Ksplice-relevant behaviours (inlining, caller-side conversions, static
// mangling, determinism, sections).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "base/hash.h"
#include "base/strings.h"
#include "corpus/corpus.h"
#include "kcc/codegen.h"
#include "kcc/compile.h"
#include "kcc/lexer.h"
#include "kcc/objcache.h"
#include "kcc/parser.h"
#include "kcc/preprocess.h"
#include "kdiff/diff.h"
#include "kvx/asm.h"
#include "listing_oracle.h"

namespace kcc {
namespace {

using kdiff::SourceTree;

// ------------------------------------------------------------------ Lexer

TEST(LexerTest, TokenKinds) {
  ks::Result<std::vector<Token>> tokens =
      Lex("int x = 0x1f; // comment\nchar c = 'a';", "t.kc");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  ASSERT_GE(tokens->size(), 11u);
  EXPECT_EQ((*tokens)[0].kind, TokKind::kKeyword);
  EXPECT_EQ((*tokens)[0].tok, Tok::kInt);
  EXPECT_EQ((*tokens)[1].kind, TokKind::kIdent);
  EXPECT_EQ((*tokens)[3].kind, TokKind::kIntLit);
  EXPECT_EQ((*tokens)[3].int_value, 0x1f);
  // 'a'
  bool found_char = false;
  for (const Token& tok : *tokens) {
    if (tok.kind == TokKind::kCharLit) {
      EXPECT_EQ(tok.int_value, 'a');
      found_char = true;
    }
  }
  EXPECT_TRUE(found_char);
}

TEST(LexerTest, StringEscapes) {
  ks::Result<std::vector<Token>> tokens = Lex(R"("a\n\t\"b")", "t.kc");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].str_value, "a\n\t\"b");
}

TEST(LexerTest, BlockCommentsTrackLines) {
  ks::Result<std::vector<Token>> tokens =
      Lex("/* line1\nline2 */ @", "t.kc");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("t.kc:2"), std::string::npos);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("int x = `;", "t.kc").ok());
  EXPECT_FALSE(Lex("\"unterminated", "t.kc").ok());
  EXPECT_FALSE(Lex("'ab'", "t.kc").ok());
  EXPECT_FALSE(Lex("/* never closed", "t.kc").ok());
  EXPECT_FALSE(Lex("123abc", "t.kc").ok());
}

// ----------------------------------------------------------------- Parser

TEST(ParserTest, FunctionAndGlobal) {
  ks::Result<Unit> unit = ParseSource(R"(
int counter = 5;
static char tag = 'x';
extern int other_unit_var;

int bump(int by) {
  counter = counter + by;
  return counter;
}
)",
                                      "u.kc");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  ASSERT_EQ(unit->globals.size(), 3u);
  EXPECT_EQ(unit->globals[0].name, "counter");
  EXPECT_TRUE(unit->globals[0].has_init);
  EXPECT_TRUE(unit->globals[1].is_static);
  EXPECT_TRUE(unit->globals[2].is_extern);
  ASSERT_EQ(unit->functions.size(), 1u);
  EXPECT_EQ(unit->functions[0].name, "bump");
  EXPECT_TRUE(unit->functions[0].is_definition);
  ASSERT_EQ(unit->functions[0].params.size(), 1u);
  EXPECT_GT(unit->functions[0].body_size, 0);
}

TEST(ParserTest, StructsAndPointers) {
  ks::Result<Unit> unit = ParseSource(R"(
struct node {
  int value;
  char tag;
  struct node *next;
};
struct node *head;
int sum(struct node *n) {
  int total = 0;
  while (n != 0) {
    total += n->value;
    n = n->next;
  }
  return total;
}
)",
                                      "u.kc");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  ASSERT_EQ(unit->structs.size(), 1u);
  EXPECT_EQ(unit->structs[0].fields.size(), 3u);
  EXPECT_TRUE(unit->globals[0].type->IsPointer());
}

TEST(ParserTest, ArraysAndInitializers) {
  ks::Result<Unit> unit = ParseSource(R"(
int table[4] = {1, 2+3, 0x10, -1};
char msg[] = "hello";
int handlers[2] = {handler_a, handler_b};
)",
                                      "u.kc");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_EQ(unit->globals[0].init.size(), 4u);
  EXPECT_EQ(unit->globals[0].init[1].int_value, 5);  // folded
  EXPECT_EQ(unit->globals[1].type->array_len, 6);    // "hello" + NUL
  EXPECT_EQ(unit->globals[2].init[0].kind, InitElem::Kind::kSym);
  EXPECT_EQ(unit->globals[2].init[0].symbol, "handler_a");
}

TEST(ParserTest, KspliceHooks) {
  ks::Result<Unit> unit = ParseSource(R"(
void myupdate(void) { }
ksplice_apply(myupdate);
ksplice_pre_apply(myupdate);
)",
                                      "u.kc");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  ASSERT_EQ(unit->hooks.size(), 2u);
  EXPECT_EQ(unit->hooks[0].kind, "apply");
  EXPECT_EQ(unit->hooks[1].kind, "pre_apply");
  EXPECT_EQ(unit->hooks[0].func, "myupdate");
}

TEST(ParserTest, ControlFlowAndFor) {
  ks::Result<Unit> unit = ParseSource(R"(
int f(int n) {
  int total = 0;
  int i;
  for (i = 0; i < n; i++) {
    if (i % 2 == 0) {
      continue;
    }
    total += i;
    if (total > 100) {
      break;
    }
  }
  return total;
}
)",
                                      "u.kc");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
}

TEST(ParserTest, ConstantFoldingShrinksAst) {
  ks::Result<Unit> small = ParseSource("int f() { return 2*3+4; }", "a.kc");
  ks::Result<Unit> lit = ParseSource("int f() { return 10; }", "b.kc");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ(small->functions[0].body_size, lit->functions[0].body_size);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSource("int f( {", "t.kc").ok());
  EXPECT_FALSE(ParseSource("int;", "t.kc").ok());
  EXPECT_FALSE(ParseSource("struct s { };", "t.kc").ok());
  EXPECT_FALSE(ParseSource("inline int x;", "t.kc").ok());
  EXPECT_FALSE(ParseSource("extern int x = 5;", "t.kc").ok());
  EXPECT_FALSE(ParseSource("int f() { return 1 }", "t.kc").ok());
  EXPECT_FALSE(ParseSource("int a[] ;", "t.kc").ok());
}

// Every front-end diagnostic, pinned to its full text: each lexer error,
// each Expect* path, and the spelling of every token kind in "got '%s'"
// (identifiers, keywords, one- and two-character punctuators; literals
// and end of input print as '').
TEST(FrontEndTest, DiagnosticTextIsPinned) {
  const std::pair<const char*, const char*> kCases[] = {
      // Lexer.
      {"/* never closed", "t.kc:1: unterminated comment"},
      {"int x;\n#include \"a.h\"",
       "t.kc:2: unexpected '#' (unpreprocessed input?)"},
      {"int x = 0x;", "t.kc:1: bad hex literal"},
      {"int y = 123abc;", "t.kc:1: bad numeric literal suffix"},
      {"char c = '", "t.kc:1: unterminated char literal"},
      {"char c = 'ab';", "t.kc:1: unterminated char literal"},
      {"char c = '\\", "t.kc:1: dangling escape"},
      {"char *s = \"\\q\";", "t.kc:1: bad escape '\\q'"},
      {"char *s = \"ab\ncd\";", "t.kc:1: newline in string literal"},
      {"char *s = \"unterminated", "t.kc:1: unterminated string literal"},
      {"int x = `;", "t.kc:1: unexpected character '`'"},
      {"/* line1\nline2 */ @", "t.kc:2: unexpected character '@'"},
      // Expecting a punctuator, with every kind of token found instead.
      {"int f() { return 1 }", "t.kc:1: expected ';', got '}'"},
      {"int f() { return 1 int }", "t.kc:1: expected ';', got 'int'"},
      {"int x y;", "t.kc:1: expected ';', got 'y'"},
      {"int x 5;", "t.kc:1: expected ';', got ''"},
      {"int x", "t.kc:1: expected ';', got ''"},
      {"int x \"s\";", "t.kc:1: expected ';', got ''"},
      {"int x <<= 1;", "t.kc:1: expected ';', got '<<'"},
      {"int x += 1;", "t.kc:1: expected ';', got '+='"},
      {"int x && y;", "t.kc:1: expected ';', got '&&'"},
      {"ksplice_apply x;", "t.kc:1: expected '(', got 'x'"},
      {"int f() { if x) return 1; }", "t.kc:1: expected '(', got 'x'"},
      {"int f() { return (int 3; }", "t.kc:1: expected ')', got ''"},
      {"int f() { g(1, 2; }", "t.kc:1: expected ')', got ';'"},
      {"int f(int a[3]);", "t.kc:1: expected ']', got ''"},
      {"int g[4 = 1;", "t.kc:1: expected ']', got '='"},
      {"int f() { for (;;) return 1 }", "t.kc:1: expected ';', got '}'"},
      {"int f() {\n  return 1\n}", "t.kc:3: expected ';', got '}'"},
      // Expecting an identifier.
      {"int (;", "t.kc:1: expected identifier, got '('"},
      {"int int;", "t.kc:1: expected identifier, got 'int'"},
      {"int f() { return a->5; }", "t.kc:1: expected identifier, got ''"},
      {"int f() { a.1; }", "t.kc:1: expected identifier, got ''"},
      // The parser's other errors.
      {"x;", "t.kc:1: expected type"},
      {"int x = sizeof(y);", "t.kc:1: expected type"},
      {"struct s { int a[x]; };", "t.kc:1: expected array length"},
      {"struct s { };", "t.kc:1: empty struct"},
      {"struct s { int a; };\nstruct s { int b; };",
       "t.kc:2: duplicate struct 's'"},
      {"inline int x;", "t.kc:1: 'inline' is only valid on functions"},
      {"extern int x = 5;", "t.kc:1: extern declaration with initializer"},
      {"int a[] ;", "t.kc:1: array 'a' has no size"},
      {"int x = 1 + y;", "t.kc:1: initializer is not a constant"},
      {"int x = {1};", "t.kc:1: brace initializer on non-array"},
      {"int f() { return 1;", "t.kc:1: unterminated block"},
      {"int f() { static x = 1; }",
       "t.kc:1: expected declaration after 'static'"},
      {"int f() { return ); }", "t.kc:1: unexpected token ')'"},
      {"int f() { return while; }", "t.kc:1: unexpected token 'while'"},
      {"int f() {\n  x = 3 +;\n}", "t.kc:2: unexpected token ';'"},
      {"int f() {\n\n  return -;", "t.kc:3: unexpected token ';'"},
      {"int f(int a, void);", "t.kc:1: parameter of type void"},
  };
  for (const auto& [source, message] : kCases) {
    SCOPED_TRACE(source);
    ks::Result<Unit> unit = ParseSource(source, "t.kc");
    ASSERT_FALSE(unit.ok());
    EXPECT_EQ(unit.status().code(), ks::ErrorCode::kInvalidArgument);
    EXPECT_EQ(unit.status().message(), message);
  }
}

// A Unit's names are views into its own copy of the text, so the source
// string may be overwritten and destroyed, and the Unit moved, before code
// is generated. The short source fits in std::string's inline buffer.
TEST(FrontEndTest, UnitOwnsItsText) {
  const std::string kShort = "int x;";
  const std::string kLong = R"(struct node { int value; struct node* next; };
static char tag[] = "a string literal longer than sixteen bytes";
int sum(struct node* n) {
  int total = 0;
  while (n) { total += n->value; n = n->next; }
  return total;
}
int twice(int v) { return sum(0) + v * 2 + tag[0]; }
)";
  auto listing = [](const Unit& unit) {
    std::string out;
    ks::Status status = GenerateCode(
        unit, CompileOptions(),
        [&out](std::span<const kvx::Stmt> stmts) { out += kvx::Print(stmts); });
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  };
  auto fresh = [&listing](const std::string& text) {
    ks::Result<Unit> unit = ParseSource(text, "unit.kc");
    EXPECT_TRUE(unit.ok()) << unit.status().ToString();
    return unit.ok() ? listing(*unit) : "";
  };
  const std::string want_short = fresh(kShort);
  const std::string want_long = fresh(kLong);
  ASSERT_NE(want_short, want_long);

  // One Unit copies its source, the other takes it; both sources are then
  // overwritten and destroyed.
  auto copied = std::make_unique<std::string>(kShort);
  auto moved_in = std::make_unique<std::string>(kLong);
  ks::Result<Unit> from_copy = ParseSource(*copied, "unit.kc");
  ks::Result<Unit> from_move = Parse(std::move(*moved_in), "unit.kc");
  ASSERT_TRUE(from_copy.ok() && from_move.ok());
  for (std::string* source : {copied.get(), moved_in.get()}) {
    source->assign(kLong.size() + 40, '#');
  }
  copied.reset();
  moved_in.reset();
  Unit a = std::move(from_copy).value();
  Unit b = std::move(from_move).value();
  std::swap(a, b);
  EXPECT_EQ(listing(a), want_long);
  EXPECT_EQ(listing(b), want_short);
}

// body_size and the inlining flags are counted while the body is parsed;
// they equal a walk of the finished tree for every corpus function.
int CountNodes(const Expr* expr) {
  if (expr == nullptr) {
    return 0;
  }
  int count = 1 + CountNodes(expr->lhs) + CountNodes(expr->rhs);
  for (const Expr* arg : expr->args) {
    count += CountNodes(arg);
  }
  return count;
}

int CountNodes(const Stmt* stmt, const FuncDecl& fn, bool& recursive,
               bool& static_local) {
  if (stmt == nullptr) {
    return 0;
  }
  static_local = static_local || stmt->is_static_local;
  int count = 1;
  for (const Expr* expr : {stmt->expr, stmt->init, stmt->cond, stmt->step}) {
    count += CountNodes(expr);
    std::vector<const Expr*> pending{expr};
    while (!pending.empty()) {
      const Expr* e = pending.back();
      pending.pop_back();
      if (e == nullptr) {
        continue;
      }
      recursive = recursive ||
                  (e->kind == Expr::Kind::kCall && e->name == fn.name);
      pending.insert(pending.end(), {e->lhs, e->rhs});
      pending.insert(pending.end(), e->args.begin(), e->args.end());
    }
  }
  for (const Stmt* child : {stmt->init_stmt, stmt->then_body,
                            stmt->else_body, stmt->body}) {
    count += CountNodes(child, fn, recursive, static_local);
  }
  for (const Stmt* child : stmt->stmts) {
    count += CountNodes(child, fn, recursive, static_local);
  }
  return count;
}

TEST(ParserTest, InliningInputsEqualATreeWalk) {
  const SourceTree& tree = corpus::KernelSource();
  int definitions = 0;
  for (const std::string& path : tree.Paths()) {
    if (!ks::EndsWith(path, ".kc")) {
      continue;
    }
    ks::Result<Unit> unit = ParseUnit(tree, path);
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();
    for (const FuncDecl& fn : unit->functions) {
      if (!fn.is_definition) {
        continue;
      }
      SCOPED_TRACE(path + ": " + std::string(fn.name));
      bool recursive = false;
      bool static_local = false;
      EXPECT_EQ(fn.body_size, CountNodes(fn.body, fn, recursive, static_local));
      EXPECT_EQ(fn.is_recursive, recursive);
      EXPECT_EQ(fn.has_static_local, static_local);
      ++definitions;
    }
  }
  EXPECT_GT(definitions, 100);
}

// ------------------------------------------------------------ Preprocess

TEST(PreprocessTest, IncludeOnceAndClosure) {
  SourceTree tree;
  tree.Write("defs.h", "int shared_decl(int x);\n");
  tree.Write("extra.h", "#include \"defs.h\"\nextern int g;\n");
  tree.Write("unit.kc",
             "#include \"defs.h\"\n#include \"extra.h\"\nint user() { "
             "return shared_decl(1); }\n");
  ks::Result<PreprocessedSource> src = Preprocess(tree, "unit.kc");
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  // defs.h included once despite two paths to it.
  size_t first = src->text.find("shared_decl(int x)");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(src->text.find("shared_decl(int x)", first + 1),
            std::string::npos);
  EXPECT_EQ(src->includes.size(), 2u);

  ks::Result<std::vector<std::string>> closure =
      IncludeClosure(tree, "unit.kc");
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->size(), 3u);  // unit + 2 headers
}

TEST(PreprocessTest, MissingIncludeFails) {
  SourceTree tree;
  tree.Write("unit.kc", "#include \"ghost.h\"\n");
  EXPECT_FALSE(Preprocess(tree, "unit.kc").ok());
}

TEST(PreprocessTest, UnknownDirectiveFails) {
  SourceTree tree;
  tree.Write("unit.kc", "#define X 1\n");
  EXPECT_FALSE(Preprocess(tree, "unit.kc").ok());
}

// ------------------------------------------------------------ IncludeGraph

// The closure Preprocess implies: the unit, then every file it read.
ks::Result<std::vector<std::string>> PreprocessClosure(
    const SourceTree& tree, const std::string& unit) {
  std::vector<std::string> closure{unit};
  if (ks::EndsWith(unit, ".kc")) {
    KS_ASSIGN_OR_RETURN(PreprocessedSource src, Preprocess(tree, unit));
    closure.insert(closure.end(), src.includes.begin(), src.includes.end());
  }
  return closure;
}

void ExpectSameClosure(const ks::Result<std::vector<std::string>>& got,
                       const ks::Result<std::vector<std::string>>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ(*got, *want);
}

// Every unit of `tree`: the graph's closure on `side` equals Preprocess's,
// element by element, from a graph of the whole tree and from a one-unit
// query.
void ExpectGraphMatchesPreprocess(
    const SourceTree& tree, const IncludeGraph& graph,
    IncludeGraph::Side side = IncludeGraph::Side::kPre) {
  for (const std::string& path : tree.Paths()) {
    if (!IsCompilationUnit(path)) {
      continue;
    }
    SCOPED_TRACE(path);
    ks::Result<std::vector<std::string>> want = PreprocessClosure(tree, path);
    ExpectSameClosure(graph.Closure(path, side), want);
    ExpectSameClosure(IncludeClosure(tree, path), want);
  }
}

TEST(IncludeGraphTest, MatchesPreprocessOnEveryRelease) {
  for (size_t i = 0; i < corpus::KernelVersions().size(); ++i) {
    SCOPED_TRACE(corpus::KernelVersions()[i].name);
    ks::Result<SourceTree> tree = corpus::KernelSourceAt(i);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ExpectGraphMatchesPreprocess(*tree, IncludeGraph(*tree));
  }
}

TEST(IncludeGraphTest, MatchesPreprocessOnEveryCvePostTree) {
  const SourceTree& pre = corpus::KernelSource();
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    SCOPED_TRACE(vuln.cve);
    ks::Result<std::string> text = corpus::AmendedPatchFor(vuln);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    ks::Result<kdiff::Patch> patch = kdiff::ParseUnifiedDiff(*text);
    ASSERT_TRUE(patch.ok()) << patch.status().ToString();
    ks::Result<SourceTree> post = kdiff::ApplyPatch(pre, *patch);
    ASSERT_TRUE(post.ok()) << post.status().ToString();
    ExpectGraphMatchesPreprocess(*post, IncludeGraph(*post));
    // The two-sided graph RunPrePost uses: the pre graph with only the
    // touched paths rescanned for the post side.
    IncludeGraph both(pre);
    both.AddPost(*post, patch->TouchedPaths());
    ExpectGraphMatchesPreprocess(*post, both, IncludeGraph::Side::kPost);
    ExpectGraphMatchesPreprocess(pre, both, IncludeGraph::Side::kPre);
  }
}

// Synthetic trees for every way Preprocess can fail, and the include-once
// corner cases; the graph must agree on success or on the exact error.
TEST(IncludeGraphTest, AgreesWithPreprocessOnErrorsAndCycles) {
  std::map<std::string, SourceTree> cases;
  auto add = [&cases](const std::string& name,
                      std::vector<std::pair<std::string, std::string>> files) {
    SourceTree& tree = cases[name];
    for (auto& [path, contents] : files) {
      tree.Write(path, contents);
    }
  };
  add("missing include", {{"unit.kc", "#include \"ghost.h\"\nint x;\n"}});
  add("missing include below a good one",
      {{"unit.kc", "#include \"a.h\"\n#include \"ghost.h\"\n"},
       {"a.h", "int a;\n"}});
  add("define", {{"unit.kc", "int x;\n  #define X 1\n"}});
  add("define in a header after its includes",
      {{"unit.kc", "#include \"a.h\"\n"},
       {"a.h", "#include \"b.h\"\n#define A\n"},
       {"b.h", "int b;\n"}});
  add("error in an include before a bad line",
      {{"unit.kc", "#include \"a.h\"\n#pragma once\n"},
       {"a.h", "#include <b.h>\n"}});
  add("define on a later line",
      {{"unit.kc", "int z;\n#include \"a.h\"\nint x;\n\t#define X\n"},
       {"a.h", "\n#include \"b.h\"\n"},
       {"b.h", "int b;\n"}});
  add("hash inside a line",
      {{"unit.kc", "char *s = \"#include \\\"ghost.h\\\"\";\nint a; #x\n"}});
  add("unquoted include", {{"unit.kc", "#include <stdio.h>\n"}});
  add("bare include", {{"unit.kc", "# include\n"}});
  add("cycle", {{"unit.kc", "#include \"a.h\"\n"},
                {"a.h", "#include \"b.h\"\nint a;\n"},
                {"b.h", "#include \"a.h\"\nint b;\n"}});
  add("includes itself", {{"unit.kc", "#include \"unit.kc\"\nint x;\n"}});
  add("diamond", {{"unit.kc", "#include \"b.h\"\n#include \"a.h\"\n"},
                  {"a.h", "#include \"c.h\"\n"},
                  {"b.h", "#include \"c.h\"\n#include \"a.h\"\n"},
                  {"c.h", "int c;\n"}});
  add("missing unit", {{"other.kc", "int y;\n"}});
  // Nesting: unit -> h1 -> ... -> hN. Depth 32 is the deepest allowed.
  for (int depth : {32, 33, 34}) {
    std::vector<std::pair<std::string, std::string>> files;
    files.emplace_back("unit.kc", "#include \"h1.h\"\n");
    for (int i = 1; i <= depth; ++i) {
      std::string body =
          i < depth ? ks::StrPrintf("#include \"h%d.h\"\n", i + 1) : "";
      files.emplace_back(ks::StrPrintf("h%d.h", i), body + "int v;\n");
    }
    add(ks::StrPrintf("%d-deep chain", depth), std::move(files));
  }
  add("kvs unit", {{"entry.kvs", "# not a directive\n.text\n"}});

  for (const auto& [name, tree] : cases) {
    SCOPED_TRACE(name);
    const std::string unit = tree.Exists("entry.kvs") ? "entry.kvs"
                                                      : "unit.kc";
    ks::Result<std::vector<std::string>> want = PreprocessClosure(tree, unit);
    ExpectSameClosure(IncludeGraph(tree).Closure(unit), want);
    ExpectSameClosure(IncludeClosure(tree, unit), want);
  }
  // Spot-check the oracle itself at the nesting limit.
  EXPECT_FALSE(Preprocess(cases["33-deep chain"], "unit.kc").ok());
  ks::Result<std::vector<std::string>> deepest =
      IncludeGraph(cases["32-deep chain"]).Closure("unit.kc");
  ASSERT_TRUE(deepest.ok()) << deepest.status().ToString();
  EXPECT_EQ(deepest->size(), 33u);
}

// One key per (closure contents, options), whichever way the closure
// reached the cache: BuildTree's graph, a one-unit query inside
// CompileUnit, or a caller's graph.
TEST(IncludeGraphTest, CacheKeyIsTheSameThroughEveryEntryPoint) {
  SourceTree tree;
  tree.Write("defs.h", "int shared_decl(int x);\n");
  tree.Write("a.kc", "#include \"defs.h\"\nint a() { return shared_decl(1); }\n");
  tree.Write("b.kc", "int b() { return 2; }\n");
  ObjectCache cache;
  CompileOptions options;
  options.cache = &cache;
  ASSERT_TRUE(BuildTree(tree, options).ok());
  EXPECT_EQ(cache.misses(), 2u);
  ASSERT_TRUE(CompileUnit(tree, "a.kc", options).ok());
  IncludeGraph graph(tree);
  bool was_hit = false;
  ASSERT_TRUE(
      cache.GetOrCompile(tree, "b.kc", graph.Closure("b.kc"), options, &was_hit)
          .ok());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);

  // A header edit changes a's key only.
  SourceTree edited = tree;
  edited.Write("defs.h", "int shared_decl(int x);\nint other;\n");
  ASSERT_TRUE(BuildTree(edited, options).ok());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 3u);

  // A closure naming a file the tree lacks has no content address: the
  // unit compiles uncached instead of being keyed.
  SourceTree without = tree;
  without.Remove("defs.h");
  without.Write("a.kc", "int a() { return 1; }\n");
  ks::Result<kelf::ObjectFile> stale =
      cache.GetOrCompile(without, "a.kc", graph.Closure("a.kc"), options);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 3u);
}

// AddPost rescans only the touched paths for the post side: a created
// header reached through an edited one, a deleted header, an edited unit.
// The pre side still answers for the unedited tree.
TEST(IncludeGraphTest, RescanTracksCreatedDeletedAndEditedFiles) {
  SourceTree pre;
  pre.Write("api.h", "int api(int x);\n");
  pre.Write("old.h", "int old;\n");
  pre.Write("a.kc", "#include \"api.h\"\nint a;\n");
  pre.Write("b.kc", "#include \"old.h\"\nint b;\n");
  pre.Write("c.kc", "int c;\n");
  IncludeGraph graph(pre);

  SourceTree post = pre;
  post.Write("new.h", "int fresh(int x);\n");
  post.Write("api.h", "#include \"new.h\"\nint api(int x);\n");
  post.Remove("old.h");
  post.Write("c.kc", "#include \"api.h\"\nint c;\n");
  graph.AddPost(post, {"new.h", "api.h", "old.h", "c.kc"});

  constexpr IncludeGraph::Side kPost = IncludeGraph::Side::kPost;
  ExpectGraphMatchesPreprocess(post, graph, kPost);
  ExpectGraphMatchesPreprocess(pre, graph);
  EXPECT_EQ(*graph.Closure("a.kc", kPost),
            (std::vector<std::string>{"a.kc", "api.h", "new.h"}));
  EXPECT_EQ(graph.Closure("b.kc", kPost).status().code(),
            ks::ErrorCode::kNotFound);
  EXPECT_EQ(*graph.Closure("b.kc"),
            (std::vector<std::string>{"b.kc", "old.h"}));
}

// --------------------------------------------------------------- Codegen

std::string MustAsm(const std::string& source, int inline_threshold = 24) {
  SourceTree tree;
  tree.Write("u.kc", source);
  CompileOptions options;
  options.inline_threshold = inline_threshold;
  ks::Result<std::string> text = CompileToAsm(tree, "u.kc", options);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : "";
}

kelf::ObjectFile MustCompile(const std::string& source,
                             bool function_sections = true) {
  SourceTree tree;
  tree.Write("u.kc", source);
  CompileOptions options;
  options.function_sections = function_sections;
  options.data_sections = function_sections;
  ks::Result<kelf::ObjectFile> obj = CompileUnit(tree, "u.kc", options);
  EXPECT_TRUE(obj.ok()) << obj.status().ToString();
  return obj.ok() ? std::move(obj).value() : kelf::ObjectFile{};
}

TEST(CodegenTest, SimpleFunctionCompiles) {
  kelf::ObjectFile obj = MustCompile(R"(
int answer() {
  return 42;
}
)");
  EXPECT_NE(obj.SectionByName(".text.answer"), nullptr);
  EXPECT_TRUE(obj.FindUniqueSymbol("answer").ok());
}

TEST(CodegenTest, StaticFunctionIsLocalSymbol) {
  kelf::ObjectFile obj = MustCompile(R"(
static int helper() { return 1; }
int user() { return helper() + helper() + helper() + helper() +
             helper() + helper() + helper() + helper(); }
)");
  // helper is tiny and inlined, but its section is still emitted.
  ks::Result<int> sym = obj.FindUniqueSymbol("helper");
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(obj.symbols()[static_cast<size_t>(*sym)].binding,
            kelf::SymbolBinding::kLocal);
}

TEST(CodegenTest, InliningBelowThresholdOnly) {
  std::string src = R"(
int small(int x) { return x + 1; }
int big(int x) {
  int a = x + 1; int b = a + 2; int c = b + 3; int d = c + 4;
  int e = d + 5; int f = e + 6; int g = f + 7; int h = g + 8;
  return a + b + c + d + e + f + g + h;
}
int caller(int v) { return small(v) + big(v); }
)";
  SourceTree tree;
  tree.Write("u.kc", src);
  ks::Result<Unit> unit = ParseUnit(tree, "u.kc");
  ASSERT_TRUE(unit.ok());
  CompileOptions options;
  options.inline_threshold = 24;
  ks::Result<std::vector<std::string>> inlined =
      InlinedFunctions(*unit, options);
  ASSERT_TRUE(inlined.ok()) << inlined.status().ToString();
  EXPECT_EQ(*inlined, std::vector<std::string>{"small"});

  // The generated assembly has no call to small, one call to big.
  std::string text = MustAsm(src);
  EXPECT_EQ(text.find("call small"), std::string::npos);
  EXPECT_NE(text.find("call big"), std::string::npos);
}

// Locals resolve by scope when the unit is parsed, as C scopes them: an
// inner block shadows, a declaration is in scope in its own initializer,
// and a declaration that is a loop's whole body is seen by the loop's
// step, which runs after it.
TEST(CodegenTest, LocalsResolveByScope) {
  auto frame_refs = [](const std::string& source) {
    std::string text = MustAsm(source, 0);
    return std::count(text.begin(), text.end(), '=');  // symbol operands
  };
  // `y` below is a global unless a local of that name is in scope.
  EXPECT_EQ(frame_refs("int y;\nint f() { int y = 1; { int y = 2; y = 3; }"
                       " return y; }"),
            0);
  EXPECT_EQ(frame_refs("int y;\nint f() { int y = y + 1; return y; }"), 0);
  EXPECT_EQ(frame_refs("int y;\nint f() { int i;"
                       " for (i = 0; i < 2; y++) int y = 1; return 0; }"),
            0);
  EXPECT_EQ(frame_refs("int y;\nint f() { { int y = 1; } return y; }"), 1);

  SourceTree tree;
  tree.Write("u.kc", "int f(int a) { int b; { int a; } int b; return 0; }");
  ks::Result<std::string> dup = CompileToAsm(tree, "u.kc", CompileOptions());
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().message(), "u.kc:1: duplicate local 'b'");
}

TEST(CodegenTest, InlineKeywordIsOnlyAHint) {
  // Paper §4.2: compilers inline functions without the keyword; a big
  // function is not inlined even when marked `inline`.
  std::string src = R"(
inline int big(int x) {
  int a = x + 1; int b = a + 2; int c = b + 3; int d = c + 4;
  int e = d + 5; int f = e + 6; int g = f + 7; int h = g + 8;
  return a + b + c + d + e + f + g + h;
}
int no_keyword(int x) { return x * 2; }
int caller(int v) { return big(v) + no_keyword(v); }
)";
  std::string text = MustAsm(src);
  EXPECT_NE(text.find("call big"), std::string::npos);
  EXPECT_EQ(text.find("call no_keyword"), std::string::npos);
}

TEST(CodegenTest, RecursionIsNotInlined) {
  std::string text = MustAsm(R"(
int fact(int n) {
  if (n < 2) { return 1; }
  return n * fact(n - 1);
}
)");
  EXPECT_NE(text.find("call fact"), std::string::npos);
}

TEST(CodegenTest, StaticLocalBlocksInlining) {
  std::string text = MustAsm(R"(
int counted(int x) {
  static int count = 0;
  count++;
  return x + count;
}
int caller(int v) { return counted(v); }
)");
  EXPECT_NE(text.find("call counted"), std::string::npos);
  // Mangled static local storage exists.
  EXPECT_NE(text.find("count.1:"), std::string::npos);
}

TEST(CodegenTest, StaticLocalsWithSameNameGetDistinctSymbols) {
  std::string text = MustAsm(R"(
int f() {
  static int state = 1;
  state += 1;
  return state;
}
int g() {
  static int state = 2;
  state += 2;
  return state;
}
)",
                             0);
  EXPECT_NE(text.find("state.1:"), std::string::npos);
  EXPECT_NE(text.find("state.2:"), std::string::npos);
}

TEST(CodegenTest, CallerConvertsArgumentsPerPrototype) {
  // Paper §3.1: the conversion lives in the *caller's* object code.
  std::string narrow = MustAsm(R"(
int consume(char c);
int caller(int v) { return consume(v); }
)");
  EXPECT_NE(narrow.find("and r0, 255"), std::string::npos);

  std::string wide = MustAsm(R"(
int consume(int c);
int caller(int v) { return consume(v); }
)");
  EXPECT_EQ(wide.find("and r0, 255"), std::string::npos);
}

TEST(CodegenTest, HeaderPrototypeChangeChangesCallersObjectCode) {
  // The full §3.1 scenario: the caller's own source is untouched; only the
  // header changed; the caller's object bytes differ.
  SourceTree pre;
  pre.Write("proto.h", "int consume(char c);\n");
  pre.Write("caller.kc",
            "#include \"proto.h\"\nint use(int v) { return consume(v); }\n");
  SourceTree post = pre;
  post.Write("proto.h", "int consume(int c);\n");

  CompileOptions options;
  options.function_sections = true;
  ks::Result<kelf::ObjectFile> pre_obj =
      CompileUnit(pre, "caller.kc", options);
  ks::Result<kelf::ObjectFile> post_obj =
      CompileUnit(post, "caller.kc", options);
  ASSERT_TRUE(pre_obj.ok());
  ASSERT_TRUE(post_obj.ok());
  EXPECT_NE(pre_obj->SectionByName(".text.use")->bytes,
            post_obj->SectionByName(".text.use")->bytes);
}

TEST(CodegenTest, DeterministicOutput) {
  std::string src = R"(
int shared = 3;
static char tag = 'q';
int f(int x) { return x + shared; }
int g(int y) { return f(y) * 2; }
)";
  kelf::ObjectFile a = MustCompile(src);
  kelf::ObjectFile b = MustCompile(src);
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(CodegenTest, StringLiteralsAreContentHashed) {
  std::string text = MustAsm(R"(
void f() { printk("hello\n"); }
void g() { printk("hello\n"); printk("other"); }
)");
  // Same content -> same symbol, emitted once.
  size_t first = text.find("str.h");
  ASSERT_NE(first, std::string::npos);
  std::string sym = text.substr(first, std::string("str.h").size() + 8);
  size_t defs = 0;
  size_t pos = 0;
  while ((pos = text.find(sym + ":", pos)) != std::string::npos) {
    ++defs;
    pos += 1;
  }
  EXPECT_EQ(defs, 1u);
}

TEST(CodegenTest, GlobalsEmitData) {
  kelf::ObjectFile obj = MustCompile(R"(
int scalar = 7;
int zeroed;
char message[] = "hi";
int table[3] = {1, 2, 3};
)");
  EXPECT_NE(obj.SectionByName(".data.scalar"), nullptr);
  EXPECT_NE(obj.SectionByName(".bss.zeroed"), nullptr);
  const kelf::Section* msg = obj.SectionByName(".data.message");
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->bytes.size(), 3u);
  const kelf::Section* table = obj.SectionByName(".data.table");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->bytes.size(), 12u);
}

TEST(CodegenTest, MonolithicVsFunctionSections) {
  std::string src = R"(
int a_fn() { return 1; }
int b_fn() { return a_fn() + a_fn() + a_fn() + a_fn() + a_fn() +
             a_fn() + a_fn() + a_fn() + a_fn() + a_fn(); }
)";
  kelf::ObjectFile split = MustCompile(src, true);
  kelf::ObjectFile mono = MustCompile(src, false);
  EXPECT_NE(split.SectionByName(".text.a_fn"), nullptr);
  EXPECT_NE(split.SectionByName(".text.b_fn"), nullptr);
  EXPECT_EQ(mono.SectionByName(".text.a_fn"), nullptr);
  ASSERT_NE(mono.SectionByName(".text"), nullptr);
  // Monolithic: intra-file calls carry no relocations (a_fn is too big to
  // inline? it's tiny, so it IS inlined — use the data reference instead).
  // Check instead that the split build has one section per function.
  int text_sections = 0;
  for (const kelf::Section& sec : split.sections()) {
    if (sec.kind == kelf::SectionKind::kText) {
      ++text_sections;
    }
  }
  EXPECT_EQ(text_sections, 2);
}

TEST(CodegenTest, IntraFileCallRelocOnlyInSectionMode) {
  std::string src = R"(
int big_callee(int x) {
  int a = x + 1; int b = a + 2; int c = b + 3; int d = c + 4;
  int e = d + 5; int f = e + 6; int g = f + 7; int h = g + 8;
  return a + b + c + d + e + f + g + h;
}
int caller(int v) { return big_callee(v); }
)";
  kelf::ObjectFile split = MustCompile(src, true);
  kelf::ObjectFile mono = MustCompile(src, false);

  const kelf::Section* split_caller = split.SectionByName(".text.caller");
  ASSERT_NE(split_caller, nullptr);
  bool split_has_pcrel = false;
  for (const kelf::Relocation& rel : split_caller->relocs) {
    if (rel.type == kelf::RelocType::kPcrel32) {
      split_has_pcrel = true;
    }
  }
  EXPECT_TRUE(split_has_pcrel);

  const kelf::Section* mono_text = mono.SectionByName(".text");
  ASSERT_NE(mono_text, nullptr);
  for (const kelf::Relocation& rel : mono_text->relocs) {
    EXPECT_NE(rel.type, kelf::RelocType::kPcrel32)
        << "monolithic intra-file call should be resolved at assembly";
  }
}

TEST(CodegenTest, StructMemberAccess) {
  std::string text = MustAsm(R"(
struct pair { int a; char tag; int b; };
struct pair p;
int get_b(struct pair *q) { return q->b; }
int get_a() { return p.a; }
)");
  // b is at offset 8 (a:0..4, tag:4, pad, b:8).
  EXPECT_NE(text.find("add r0, 8"), std::string::npos);
}

TEST(CodegenTest, SizeofStruct) {
  std::string text = MustAsm(R"(
struct pair { int a; char tag; int b; };
int size() { return sizeof(struct pair); }
)");
  EXPECT_NE(text.find("mov r0, 12"), std::string::npos);
}

TEST(CodegenTest, KspliceHookEmitsNoteSection) {
  kelf::ObjectFile obj = MustCompile(R"(
void myupdate() { }
ksplice_apply(myupdate);
)");
  const kelf::Section* note = obj.SectionByName(".ksplice.apply");
  ASSERT_NE(note, nullptr);
  ASSERT_EQ(note->relocs.size(), 1u);
  EXPECT_EQ(obj.symbols()[static_cast<size_t>(note->relocs[0].symbol)].name,
            "myupdate");
}

TEST(CodegenTest, BuiltinsLowerToSys) {
  std::string text = MustAsm(R"(
void f() {
  printk("x");
  sleep(10);
  record(1, 2);
  lock_kernel();
  unlock_kernel();
}
)");
  EXPECT_NE(text.find("sys 0"), std::string::npos);
  EXPECT_NE(text.find("sys 3"), std::string::npos);
  EXPECT_NE(text.find("sys 7"), std::string::npos);
  EXPECT_NE(text.find("sys 9"), std::string::npos);
  EXPECT_NE(text.find("sys 10"), std::string::npos);
}

TEST(CodegenTest, AssemblyUnitsPassThrough) {
  SourceTree tree;
  tree.Write("entry.kvs", R"(
.text
.global fast_entry
fast_entry:
    mov r0, 1
    ret
)");
  CompileOptions options;
  options.function_sections = true;
  ks::Result<kelf::ObjectFile> obj = CompileUnit(tree, "entry.kvs", options);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  EXPECT_NE(obj->SectionByName(".text.fast_entry"), nullptr);
}

TEST(CodegenTest, BuildTreeCompilesAllUnits) {
  SourceTree tree;
  tree.Write("a.kc", "int a_var = 1;\nint get_a() { return a_var; }\n");
  tree.Write("b.kc", "extern int a_var;\nint get_b() { return a_var + 1; }\n");
  tree.Write("c.kvs", ".text\n.global casm\ncasm:\n    ret\n");
  tree.Write("shared.h", "int get_a();\n");
  CompileOptions options;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      BuildTree(tree, options);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  EXPECT_EQ(objects->size(), 3u);  // .h is not a unit
}

TEST(CodegenTest, ErrorsCarryLocation) {
  SourceTree tree;
  tree.Write("u.kc", "int f() {\n  return ghost_var + 1;\n}\n");
  CompileOptions options;
  ks::Result<kelf::ObjectFile> obj = CompileUnit(tree, "u.kc", options);
  // Unknown identifiers are treated as function addresses (cross-unit
  // linkage), so this actually compiles; a true error needs a bad member.
  tree.Write("v.kc",
             "struct s { int a; };\nstruct s g;\nint f() {\n  return g.b;\n}\n");
  ks::Result<kelf::ObjectFile> bad = CompileUnit(tree, "v.kc", options);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("v.kc:4"), std::string::npos);
}

TEST(CodegenTest, CompileErrors) {
  CompileOptions options;
  SourceTree tree;
  tree.Write("u.kc", "int f() { break; }\n");
  EXPECT_FALSE(CompileUnit(tree, "u.kc", options).ok());
  tree.Write("u.kc", "int f(int a, int a2) { return b[1]; }\n");
  EXPECT_FALSE(CompileUnit(tree, "u.kc", options).ok());
  tree.Write("u.kc", "struct s { int a; };\nint f(struct s v) { return 0; }\n");
  EXPECT_FALSE(CompileUnit(tree, "u.kc", options).ok());
  tree.Write("u.kc", "int f() { return sizeof(void); }\n");
  EXPECT_FALSE(CompileUnit(tree, "u.kc", options).ok());
  tree.Write("u.kc", "int x = 1;\nint x = 2;\n");
  EXPECT_FALSE(CompileUnit(tree, "u.kc", options).ok());
  tree.Write("u.kc", "ksplice_apply(nonexistent);\n");
  EXPECT_FALSE(CompileUnit(tree, "u.kc", options).ok());
}

// ------------------------------------------------------- Listing oracle

// The direct path (CompileUnit) and the printed listing assembled as text
// agree on every unit of every corpus release, monolithic and sectioned.
TEST(ListingOracle, EveryCorpusReleaseUnitAssemblesIdentically) {
  CompileOptions sectioned;
  sectioned.function_sections = true;
  sectioned.data_sections = true;
  for (size_t release = 0; release < corpus::KernelVersions().size();
       ++release) {
    ks::Result<SourceTree> tree = corpus::KernelSourceAt(release);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    for (const std::string& path : tree->Paths()) {
      if (!ks::EndsWith(path, ".kc")) {
        continue;
      }
      for (const CompileOptions& options :
           {corpus::RunBuildOptions(), CompileOptions{}, sectioned}) {
        ExpectListingRoundTrip(*tree, path, options);
      }
    }
  }
}

// Likewise for every unit a CVE fix rebuilds, on the patched (post) side,
// for the original fix and, where there is one, the hook-carrying amended
// fix. The pre-post build compiles these with sections on.
TEST(ListingOracle, EveryRebuiltCvePostUnitAssemblesIdentically) {
  CompileOptions sectioned = corpus::RunBuildOptions();
  sectioned.function_sections = true;
  sectioned.data_sections = true;
  int units = 0;
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    std::vector<ks::Result<std::string>> fixes = {corpus::PatchFor(vuln)};
    if (vuln.needs_custom_code) {
      fixes.push_back(corpus::AmendedPatchFor(vuln));
    }
    for (const ks::Result<std::string>& fix : fixes) {
      ASSERT_TRUE(fix.ok()) << vuln.cve << ": " << fix.status().ToString();
      ks::Result<kdiff::Patch> patch = kdiff::ParseUnifiedDiff(*fix);
      ASSERT_TRUE(patch.ok()) << vuln.cve;
      ks::Result<SourceTree> post =
          kdiff::ApplyPatch(corpus::KernelSource(), *patch);
      ASSERT_TRUE(post.ok()) << vuln.cve;
      std::vector<std::string> touched = patch->TouchedPaths();
      for (const std::string& path : post->Paths()) {
        if (!ks::EndsWith(path, ".kc")) {
          continue;
        }
        ks::Result<std::vector<std::string>> closure =
            IncludeClosure(*post, path);
        ASSERT_TRUE(closure.ok()) << vuln.cve << " " << path;
        if (std::find_first_of(closure->begin(), closure->end(),
                               touched.begin(), touched.end()) ==
            closure->end()) {
          continue;
        }
        ++units;
        ExpectListingRoundTrip(*post, path, sectioned);
      }
    }
  }
  EXPECT_GE(units, static_cast<int>(corpus::Vulnerabilities().size()));
}

// String bytes that the listing must escape or keep inside quotes:
// carriage return, NUL, quote, backslash, and the comment characters.
TEST(ListingOracle, StringLiteralsWithSpecialCharactersAssembleIdentically) {
  SourceTree tree;
  tree.Write("s.kc", R"(
char banner[32] = "cr\r nul\0 q\" bs\\ ; # end";
int f() {
  printk("semi;colon #hash");
  printk("\"quoted\" \\ back\r\0tail");
  return banner[0];
}
)");
  for (bool sections : {false, true}) {
    CompileOptions options;
    options.function_sections = sections;
    options.data_sections = sections;
    ExpectListingRoundTrip(tree, "s.kc", options);
  }
}

// The listing is a diagnostic surface: its text for release 0 must not
// move while the code it describes does not. FNV-64 of every .kc unit's
// CompileToAsm listing, concatenated in path order.
TEST(FormatPin, Release0ListingIsStable) {
  const SourceTree& tree = corpus::KernelSource();
  std::string listings;
  for (const std::string& path : tree.Paths()) {
    if (!ks::EndsWith(path, ".kc")) {
      continue;
    }
    ks::Result<std::string> listing =
        CompileToAsm(tree, path, CompileOptions{});
    ASSERT_TRUE(listing.ok()) << path << ": " << listing.status().ToString();
    listings += *listing;
  }
  EXPECT_EQ(ks::Fnv1a64(listings), 0x06ef0e1a2a357485ull)
      << listings.size() << " bytes";
}

}  // namespace
}  // namespace kcc
