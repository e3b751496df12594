// Byte-identity oracle for kcc's direct code path. CompileUnit hands the
// code generator's statements straight to the assembler; CompileToAsm
// prints the same statements as a listing. Assembling that listing with
// the text front end must give an object whose serialized bytes equal the
// direct one's, so the two paths cannot drift apart unnoticed.

#ifndef KSPLICE_TESTS_LISTING_ORACLE_H_
#define KSPLICE_TESTS_LISTING_ORACLE_H_

#include <gtest/gtest.h>

#include <string>

#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "kvx/asm.h"

inline void ExpectListingRoundTrip(const kdiff::SourceTree& tree,
                                   const std::string& path,
                                   const kcc::CompileOptions& options) {
  ks::Result<kelf::ObjectFile> direct = kcc::CompileUnit(tree, path, options);
  ASSERT_TRUE(direct.ok()) << path << ": " << direct.status().ToString();
  ks::Result<std::string> listing = kcc::CompileToAsm(tree, path, options);
  ASSERT_TRUE(listing.ok()) << path << ": " << listing.status().ToString();
  kvx::AsmOptions asm_options;
  asm_options.function_sections = options.function_sections;
  asm_options.data_sections = options.data_sections;
  ks::Result<kelf::ObjectFile> reassembled =
      kvx::Assemble(*listing, path, asm_options);
  ASSERT_TRUE(reassembled.ok())
      << path << ": " << reassembled.status().ToString();
  EXPECT_TRUE(direct->Serialize() == reassembled->Serialize())
      << path << " (function_sections=" << options.function_sections
      << ") differs between the direct path and its listing";
}

#endif  // KSPLICE_TESTS_LISTING_ORACLE_H_
