// Fuzz-style negative tests for the binary decoders, which all read
// through the one codec in base/bytes.h: kelf::ObjectFile,
// ksplice::UpdatePackage and the cached kanalyze::FunctionSummary.
// Malformed input — truncated tables, bit flips, out-of-range
// relocation/symbol indices, inconsistent bss — must come back as a clean
// ks::Status, never a crash or an out-of-bounds read. The sweeps are
// deterministic (every prefix length, a fixed bit pattern) so failures
// reproduce. A format pin holds the object and package encodings
// byte-for-byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/hash.h"
#include "kanalyze/summary.h"
#include "kelf/objfile.h"
#include "ksplice/package.h"

namespace {

// A representative object: two text sections with relocations, data, bss,
// local and global symbols, an import.
kelf::ObjectFile SampleObject() {
  kelf::ObjectFile obj("unit/sample.kc");

  kelf::Section text;
  text.name = ".text.f";
  text.kind = kelf::SectionKind::kText;
  text.align = 4;
  text.bytes = {0x30, 0x06, 0x42};  // push fp; ret
  int text_idx = obj.AddSection(std::move(text));

  kelf::Section text2;
  text2.name = ".text.g";
  text2.kind = kelf::SectionKind::kText;
  text2.align = 4;
  text2.bytes = std::vector<uint8_t>(16, 0x42);
  int text2_idx = obj.AddSection(std::move(text2));

  kelf::Section data;
  data.name = ".data.x";
  data.kind = kelf::SectionKind::kData;
  data.align = 4;
  data.bytes = {1, 2, 3, 4};
  int data_idx = obj.AddSection(std::move(data));

  kelf::Section bss;
  bss.name = ".bss.y";
  bss.kind = kelf::SectionKind::kBss;
  bss.align = 4;
  bss.bss_size = 8;
  obj.AddSection(std::move(bss));

  kelf::Symbol f;
  f.name = "f";
  f.binding = kelf::SymbolBinding::kGlobal;
  f.kind = kelf::SymbolKind::kFunction;
  f.section = text_idx;
  int f_idx = obj.AddSymbol(std::move(f));

  kelf::Symbol x;
  x.name = "x";
  x.binding = kelf::SymbolBinding::kLocal;
  x.kind = kelf::SymbolKind::kObject;
  x.section = data_idx;
  int x_idx = obj.AddSymbol(std::move(x));

  // Howto-tagged special sections: an exception table and a bug table for
  // f, and a build-date string — so every truncation/bit-flip sweep below
  // also covers the typed-table parse path.
  kelf::Section extable;
  extable.name = ".extable.f";
  extable.kind = kelf::SectionKind::kData;
  extable.howto = kelf::Howto::kExtable;
  extable.align = 4;
  extable.bytes = std::vector<uint8_t>(kelf::kHowtoEntrySize, 0);
  kelf::Relocation site;
  site.offset = 0;
  site.type = kelf::RelocType::kAbs32;
  site.symbol = f_idx;
  extable.relocs.push_back(site);
  kelf::Relocation fixup;
  fixup.offset = 4;
  fixup.type = kelf::RelocType::kAbs32;
  fixup.symbol = f_idx;
  fixup.addend = 1;
  extable.relocs.push_back(fixup);
  obj.AddSection(std::move(extable));

  kelf::Section bug_table;
  bug_table.name = ".bug_table.f";
  bug_table.kind = kelf::SectionKind::kData;
  bug_table.howto = kelf::Howto::kBug;
  bug_table.align = 4;
  bug_table.bytes = {0, 0, 0, 0, 42, 0, 0, 0};  // word1: literal line
  kelf::Relocation trap;
  trap.offset = 0;
  trap.type = kelf::RelocType::kAbs32;
  trap.symbol = f_idx;
  bug_table.relocs.push_back(trap);
  obj.AddSection(std::move(bug_table));

  kelf::Section date;
  date.name = ".rodata.date";
  date.kind = kelf::SectionKind::kData;
  date.howto = kelf::Howto::kDate;
  date.align = 1;
  const char* stamp = "Jan  1 2026";
  date.bytes.assign(stamp, stamp + 12);  // including the NUL
  obj.AddSection(std::move(date));

  int ext_idx = obj.InternUndefinedSymbol("external_fn");

  kelf::Relocation r1;
  r1.offset = 4;
  r1.type = kelf::RelocType::kPcrel32;
  r1.symbol = f_idx;
  r1.addend = -4;
  obj.sections()[static_cast<size_t>(text2_idx)].relocs.push_back(r1);

  kelf::Relocation r2;
  r2.offset = 9;
  r2.type = kelf::RelocType::kAbs32;
  r2.symbol = x_idx;
  obj.sections()[static_cast<size_t>(text2_idx)].relocs.push_back(r2);

  kelf::Relocation r3;
  r3.offset = 12;
  r3.type = kelf::RelocType::kPcrel32;
  r3.symbol = ext_idx;
  r3.addend = -4;
  obj.sections()[static_cast<size_t>(text2_idx)].relocs.push_back(r3);

  EXPECT_TRUE(obj.Validate().ok());
  return obj;
}

ksplice::UpdatePackage SamplePackage() {
  ksplice::UpdatePackage package;
  package.id = "fuzz-sample";
  package.helper_objects.push_back(SampleObject());
  package.primary_objects.push_back(SampleObject());
  package.targets.push_back(ksplice::Target{"unit/sample.kc", "f", ".text.f"});
  return package;
}

// A summary with every variable-length part populated.
kanalyze::FunctionSummary SampleSummary() {
  kanalyze::FunctionSummary s;
  s.writes = {{"counter", 0, 4, true}, {"table", 0, 1, false}};
  s.reads = {{"config", 8, 4, true}};
  s.reads_unresolved = true;
  s.lock_acquires = 2;
  s.lock_releases = 1;
  s.lock_imbalance = true;
  s.lock_imbalance_depth = -1;
  s.blocks = true;
  s.blocking_primitives = {"lock_kernel", "sleep"};
  s.callees = {"helper", "printk"};
  s.insns = 1234567890123ull;
  return s;
}

// ------------------------------------------------------------------------
// Format pin: the object and package encodings are part of the contract
// (quarantine keys hash UpdatePackage::Serialize()), so their bytes must
// not move. The constants are FNV-64 over the sample encodings.

TEST(FormatPin, ObjectAndPackageBytesAreStable) {
  EXPECT_EQ(ks::Fnv1a64(SampleObject().Serialize()), 0x1e471a6d0b6b32c1ull);
  EXPECT_EQ(ks::Fnv1a64(SamplePackage().Serialize()), 0x9d9b1da7ef43a06aull);
}

// ------------------------------------------------------------------------
// Truncation sweeps: every format is strict, so every proper prefix of a
// valid serialization must fail with a clean error.

TEST(FuzzObjectFile, EveryTruncationFailsCleanly) {
  std::vector<uint8_t> bytes = SampleObject().Serialize();
  ASSERT_GT(bytes.size(), 16u);
  ASSERT_TRUE(kelf::ObjectFile::Parse(bytes).ok());

  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(len));
    ks::Result<kelf::ObjectFile> parsed = kelf::ObjectFile::Parse(prefix);
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(FuzzPackage, EveryTruncationFailsCleanly) {
  std::vector<uint8_t> bytes = SamplePackage().Serialize();
  ASSERT_GT(bytes.size(), 16u);
  ASSERT_TRUE(ksplice::UpdatePackage::Parse(bytes).ok());

  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(len));
    ks::Result<ksplice::UpdatePackage> parsed =
        ksplice::UpdatePackage::Parse(prefix);
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(FuzzSummary, EveryTruncationFailsCleanly) {
  std::vector<uint8_t> bytes = SampleSummary().Serialize();
  ks::Result<kanalyze::FunctionSummary> whole =
      kanalyze::FunctionSummary::Deserialize(bytes);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->Serialize(), bytes);

  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(kanalyze::FunctionSummary::Deserialize(prefix).ok())
        << "prefix of " << len << " bytes parsed";
  }
}

// ------------------------------------------------------------------------
// Deterministic bit flips. The package has an integrity checksum, so every
// single-bit corruption must be rejected; the raw object format has no
// checksum, so a flip may legitimately still parse — the requirement is
// that Parse returns (it never crashes) and an accepted object passes
// Validate (Parse's postcondition).

TEST(FuzzObjectFile, BitFlipsNeverCrash) {
  std::vector<uint8_t> bytes = SampleObject().Serialize();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<uint8_t> mutated = bytes;
      mutated[pos] = static_cast<uint8_t>(mutated[pos] ^ (1u << bit));
      ks::Result<kelf::ObjectFile> parsed = kelf::ObjectFile::Parse(mutated);
      if (parsed.ok()) {
        EXPECT_TRUE(parsed->Validate().ok())
            << "flip at byte " << pos << " bit " << bit
            << " parsed but does not validate";
      }
    }
  }
}

TEST(FuzzPackage, EveryBitFlipIsRejected) {
  std::vector<uint8_t> bytes = SamplePackage().Serialize();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<uint8_t> mutated = bytes;
    mutated[pos] = static_cast<uint8_t>(mutated[pos] ^ 0x10);
    ks::Result<ksplice::UpdatePackage> parsed =
        ksplice::UpdatePackage::Parse(mutated);
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << pos << " accepted";
  }
}

// Summaries carry no checksum of their own (the cache checksums the
// entry), so a flip may decode; it must never crash, and whatever decodes
// must encode to bytes that decode again.
TEST(FuzzSummary, BitFlipsNeverCrash) {
  std::vector<uint8_t> bytes = SampleSummary().Serialize();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<uint8_t> mutated = bytes;
      mutated[pos] = static_cast<uint8_t>(mutated[pos] ^ (1u << bit));
      ks::Result<kanalyze::FunctionSummary> parsed =
          kanalyze::FunctionSummary::Deserialize(mutated);
      if (parsed.ok()) {
        EXPECT_TRUE(
            kanalyze::FunctionSummary::Deserialize(parsed->Serialize()).ok())
            << "flip at byte " << pos << " bit " << bit;
      }
    }
  }
}

// ------------------------------------------------------------------------
// Structurally invalid objects round-tripped through the serializer: the
// parser re-validates, so corruption introduced after construction cannot
// smuggle out-of-range indices into consumers.

TEST(FuzzObjectFile, OutOfRangeRelocSymbolRejected) {
  kelf::ObjectFile obj = SampleObject();
  obj.sections()[1].relocs[0].symbol = 999;
  ks::Result<kelf::ObjectFile> parsed =
      kelf::ObjectFile::Parse(obj.Serialize());
  EXPECT_FALSE(parsed.ok());
}

TEST(FuzzObjectFile, RelocOffsetPastSectionEndRejected) {
  kelf::ObjectFile obj = SampleObject();
  obj.sections()[1].relocs[0].offset = 1 << 20;
  ks::Result<kelf::ObjectFile> parsed =
      kelf::ObjectFile::Parse(obj.Serialize());
  EXPECT_FALSE(parsed.ok());
}

TEST(FuzzObjectFile, OutOfRangeSymbolSectionRejected) {
  kelf::ObjectFile obj = SampleObject();
  obj.symbols()[0].section = 42;
  ks::Result<kelf::ObjectFile> parsed =
      kelf::ObjectFile::Parse(obj.Serialize());
  EXPECT_FALSE(parsed.ok());
}

TEST(FuzzObjectFile, BssWithPayloadBytesRejected) {
  kelf::ObjectFile obj = SampleObject();
  for (kelf::Section& section : obj.sections()) {
    if (section.kind == kelf::SectionKind::kBss) {
      section.bytes = {1, 2, 3};
    }
  }
  ks::Result<kelf::ObjectFile> parsed =
      kelf::ObjectFile::Parse(obj.Serialize());
  EXPECT_FALSE(parsed.ok());
}

// ------------------------------------------------------------------------
// Howto table invariants: malformed entry counts and out-of-range or
// ill-typed fixup relocations must be clean parse errors, never UB.

kelf::Section* SectionNamed(kelf::ObjectFile& obj, const std::string& name) {
  for (kelf::Section& section : obj.sections()) {
    if (section.name == name) {
      return &section;
    }
  }
  return nullptr;
}

TEST(FuzzHowto, RaggedExtableEntryCountRejected) {
  kelf::ObjectFile obj = SampleObject();
  kelf::Section* table = SectionNamed(obj, ".extable.f");
  ASSERT_NE(table, nullptr);
  table->bytes.resize(kelf::kHowtoEntrySize + 3);  // 1.375 entries
  ks::Result<kelf::ObjectFile> parsed =
      kelf::ObjectFile::Parse(obj.Serialize());
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("multiple"), std::string::npos);
}

TEST(FuzzHowto, FixupRelocPastTableEndRejected) {
  kelf::ObjectFile obj = SampleObject();
  kelf::Section* table = SectionNamed(obj, ".bug_table.f");
  ASSERT_NE(table, nullptr);
  table->relocs[0].offset = 1 << 16;
  ks::Result<kelf::ObjectFile> parsed =
      kelf::ObjectFile::Parse(obj.Serialize());
  EXPECT_FALSE(parsed.ok());
}

TEST(FuzzHowto, PcrelRelocInExtableRejected) {
  kelf::ObjectFile obj = SampleObject();
  kelf::Section* table = SectionNamed(obj, ".extable.f");
  ASSERT_NE(table, nullptr);
  table->relocs[1].type = kelf::RelocType::kPcrel32;
  ks::Result<kelf::ObjectFile> parsed =
      kelf::ObjectFile::Parse(obj.Serialize());
  EXPECT_FALSE(parsed.ok());
}

TEST(FuzzHowto, MisalignedTableRelocRejected) {
  kelf::ObjectFile obj = SampleObject();
  kelf::Section* table = SectionNamed(obj, ".extable.f");
  ASSERT_NE(table, nullptr);
  table->relocs[0].offset = 2;
  ks::Result<kelf::ObjectFile> parsed =
      kelf::ObjectFile::Parse(obj.Serialize());
  EXPECT_FALSE(parsed.ok());
}

TEST(FuzzHowto, HowtoTagOnTextSectionRejected) {
  kelf::ObjectFile obj = SampleObject();
  kelf::Section* text = SectionNamed(obj, ".text.f");
  ASSERT_NE(text, nullptr);
  text->howto = kelf::Howto::kExtable;
  ks::Result<kelf::ObjectFile> parsed =
      kelf::ObjectFile::Parse(obj.Serialize());
  EXPECT_FALSE(parsed.ok());
}

TEST(FuzzPackage, GarbageAndEmptyInputsRejected) {
  EXPECT_FALSE(ksplice::UpdatePackage::Parse({}).ok());
  EXPECT_FALSE(kelf::ObjectFile::Parse(std::vector<uint8_t>{}).ok());

  std::vector<uint8_t> garbage(256);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  EXPECT_FALSE(ksplice::UpdatePackage::Parse(garbage).ok());
  EXPECT_FALSE(kelf::ObjectFile::Parse(garbage).ok());
}

}  // namespace
