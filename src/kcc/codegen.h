// KC code generation: AST -> KVX assembly statements (kvx/asm.h), which
// the assembler turns into an object without any text in between.
//
// Properties that matter to Ksplice (and are exercised by the evaluation):
//
//  - Automatic inlining. A same-unit call to a function whose body is at
//    most `inline_threshold` AST nodes is expanded inline, whether or not
//    the function says `inline` (the keyword is only a hint, as with gcc —
//    paper §4.2). The decision depends only on the callee's body, so pre,
//    post, and run builds of identical code make identical decisions.
//
//  - Implicit conversions at call boundaries. Arguments and returns are
//    converted to the prototype's types (int -> char emits a mask
//    instruction in the *caller*), so changing a prototype in a header
//    changes callers' object code without touching their source (§3.1).
//
//  - Function-scope statics are mangled "name.N" (N = per-name ordinal in
//    the unit) with local binding; file-scope statics keep their name with
//    local binding. Either way, distinct units may define identically-named
//    local symbols — the ambiguity run-pre matching exists to resolve.
//
//  - String literals become local ".str.h<fnv32>" data symbols named by
//    content hash, so unrelated edits do not renumber them.
//
// The generator performs semantic analysis (scopes, types, struct layout)
// in the same pass; it emits one assembly function per KC function in
// declaration order, then data, then hook directives. Sectioning
// (-ffunction-sections) is the assembler's concern.

#ifndef KSPLICE_KCC_CODEGEN_H_
#define KSPLICE_KCC_CODEGEN_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "kcc/ast.h"
#include "kcc/compile.h"
#include "kvx/asm.h"

namespace kcc {

// Receives generated statements, in output order.
using StmtSink = std::function<void(std::span<const kvx::Stmt>)>;

// Lowers `unit` to KVX assembly statements. `sink` gets each function's
// statements once the function is complete, then the data and the hook
// directives; on error it may have seen a prefix of the unit. Of
// `options`, only inline_threshold, build_date and build_time apply.
ks::Status GenerateCode(const Unit& unit, const CompileOptions& options,
                        const StmtSink& sink);

// Returns the names of functions in `unit` that GenerateCode would expand
// inline at some call site in `unit`, given `options`. Used by the
// evaluation to report the paper's §6.3 inlining statistics.
ks::Result<std::vector<std::string>> InlinedFunctions(
    const Unit& unit, const CompileOptions& options);

}  // namespace kcc

#endif  // KSPLICE_KCC_CODEGEN_H_
