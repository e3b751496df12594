// Unit tests for kelf: object model, serialization, validation, linking.

#include <gtest/gtest.h>

#include "base/endian.h"
#include "kelf/link.h"
#include "kelf/objfile.h"

namespace kelf {
namespace {

Section TextSection(std::string name, std::vector<uint8_t> bytes) {
  Section sec;
  sec.name = std::move(name);
  sec.kind = SectionKind::kText;
  sec.align = 8;
  sec.bytes = std::move(bytes);
  return sec;
}

Section DataSection(std::string name, std::vector<uint8_t> bytes) {
  Section sec;
  sec.name = std::move(name);
  sec.kind = SectionKind::kData;
  sec.align = 4;
  sec.bytes = std::move(bytes);
  return sec;
}

// Builds an object with one function section that stores to a global and
// one data section, the shape kcc emits under -ffunction-sections.
ObjectFile MakeSimpleObject() {
  ObjectFile obj("unit.kc");
  int text = obj.AddSection(TextSection(".text.fn", {0x10, 0x00, 0, 0, 0, 0}));
  int data = obj.AddSection(DataSection(".data.counter", {1, 0, 0, 0}));

  int fn = obj.AddSymbol(Symbol{.name = "fn",
                                .binding = SymbolBinding::kGlobal,
                                .kind = SymbolKind::kFunction,
                                .section = text,
                                .value = 0,
                                .size = 6});
  (void)fn;
  int counter = obj.AddSymbol(Symbol{.name = "counter",
                                     .binding = SymbolBinding::kLocal,
                                     .kind = SymbolKind::kObject,
                                     .section = data,
                                     .value = 0,
                                     .size = 4});
  obj.sections()[static_cast<size_t>(text)].relocs.push_back(Relocation{
      .offset = 2, .type = RelocType::kAbs32, .symbol = counter, .addend = 0});
  return obj;
}

TEST(ObjectFileTest, FindSection) {
  ObjectFile obj = MakeSimpleObject();
  EXPECT_TRUE(obj.FindSection(".text.fn").has_value());
  EXPECT_FALSE(obj.FindSection(".text.other").has_value());
  EXPECT_NE(obj.SectionByName(".data.counter"), nullptr);
  EXPECT_EQ(obj.SectionByName("nope"), nullptr);
}

TEST(ObjectFileTest, FindUniqueSymbol) {
  ObjectFile obj = MakeSimpleObject();
  ks::Result<int> idx = obj.FindUniqueSymbol("fn");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(obj.symbols()[static_cast<size_t>(*idx)].name, "fn");
  EXPECT_EQ(obj.FindUniqueSymbol("ghost").status().code(),
            ks::ErrorCode::kNotFound);
}

TEST(ObjectFileTest, AmbiguousLocalSymbolsAreAllowedButNotUnique) {
  // Two local symbols may share a name (the paper's "debug"/"notesize"
  // situation); FindUniqueSymbol must refuse to pick one.
  ObjectFile obj("two.kc");
  int s0 = obj.AddSection(DataSection(".data.a", {0, 0, 0, 0}));
  int s1 = obj.AddSection(DataSection(".data.b", {0, 0, 0, 0}));
  obj.AddSymbol(Symbol{.name = "debug",
                       .binding = SymbolBinding::kLocal,
                       .kind = SymbolKind::kObject,
                       .section = s0});
  obj.AddSymbol(Symbol{.name = "debug",
                       .binding = SymbolBinding::kLocal,
                       .kind = SymbolKind::kObject,
                       .section = s1});
  EXPECT_EQ(obj.FindSymbols("debug").size(), 2u);
  EXPECT_EQ(obj.FindUniqueSymbol("debug").status().code(),
            ks::ErrorCode::kInvalidArgument);
}

TEST(ObjectFileTest, InternUndefinedSymbolDeduplicates) {
  ObjectFile obj("x.kc");
  int a = obj.InternUndefinedSymbol("printk");
  int b = obj.InternUndefinedSymbol("printk");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(obj.symbols()[static_cast<size_t>(a)].defined());
}

TEST(ObjectFileTest, DefiningSymbolForSection) {
  ObjectFile obj = MakeSimpleObject();
  std::optional<int> def = obj.DefiningSymbolForSection(0);
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(obj.symbols()[static_cast<size_t>(*def)].name, "fn");
}

TEST(ObjectFileTest, SerializeParseRoundTrip) {
  ObjectFile obj = MakeSimpleObject();
  std::vector<uint8_t> bytes = obj.Serialize();
  ks::Result<ObjectFile> parsed = ObjectFile::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->source_name(), "unit.kc");
  ASSERT_EQ(parsed->sections().size(), 2u);
  EXPECT_EQ(parsed->sections()[0].name, ".text.fn");
  EXPECT_EQ(parsed->sections()[0].bytes, obj.sections()[0].bytes);
  ASSERT_EQ(parsed->sections()[0].relocs.size(), 1u);
  EXPECT_EQ(parsed->sections()[0].relocs[0].offset, 2u);
  EXPECT_EQ(parsed->sections()[0].relocs[0].type, RelocType::kAbs32);
  ASSERT_EQ(parsed->symbols().size(), 2u);
  EXPECT_EQ(parsed->symbols()[1].name, "counter");
  // Re-serializing the parse yields identical bytes (canonical form).
  EXPECT_EQ(parsed->Serialize(), bytes);
}

TEST(ObjectFileTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ObjectFile::Parse(std::vector<uint8_t>{1, 2, 3}).ok());
  std::vector<uint8_t> truncated = MakeSimpleObject().Serialize();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(ObjectFile::Parse(truncated).ok());
  std::vector<uint8_t> trailing = MakeSimpleObject().Serialize();
  trailing.push_back(0);
  EXPECT_FALSE(ObjectFile::Parse(trailing).ok());
}

TEST(ObjectFileTest, ValidateCatchesBadRelocation) {
  ObjectFile obj = MakeSimpleObject();
  obj.sections()[0].relocs[0].offset = 100;  // beyond section
  EXPECT_FALSE(obj.Validate().ok());
}

TEST(ObjectFileTest, ValidateCatchesBadSymbolSection) {
  ObjectFile obj = MakeSimpleObject();
  obj.symbols()[0].section = 9;
  EXPECT_FALSE(obj.Validate().ok());
}

TEST(ObjectFileTest, ValidateCatchesBssWithBytes) {
  ObjectFile obj("b.kc");
  Section sec;
  sec.name = ".bss.x";
  sec.kind = SectionKind::kBss;
  sec.bytes = {1};
  obj.AddSection(std::move(sec));
  EXPECT_FALSE(obj.Validate().ok());
}

TEST(ObjectFileTest, ValidateCatchesNonPowerOfTwoAlign) {
  ObjectFile obj("a.kc");
  Section sec = TextSection(".text", {});
  sec.align = 3;
  obj.AddSection(std::move(sec));
  EXPECT_FALSE(obj.Validate().ok());
}

// Link ------------------------------------------------------------------

TEST(LinkerTest, LaysOutTextBeforeDataBeforeBss) {
  ObjectFile obj("m.kc");
  obj.AddSection(TextSection(".text.f", {0x42}));  // ret
  obj.AddSection(DataSection(".data.d", {1, 2, 3, 4}));
  Section bss;
  bss.name = ".bss.z";
  bss.kind = SectionKind::kBss;
  bss.align = 4;
  bss.bss_size = 16;
  obj.AddSection(std::move(bss));

  ks::Result<LinkedImage> image = Link({&obj, 1}, 0x1000);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  ASSERT_EQ(image->placements.size(), 3u);
  EXPECT_EQ(image->placements[0].name, ".text.f");
  EXPECT_EQ(image->placements[0].address, 0x1000u);
  EXPECT_EQ(image->placements[1].name, ".data.d");
  EXPECT_LT(image->placements[1].address, image->placements[2].address);
  EXPECT_EQ(image->placements[2].name, ".bss.z");
  EXPECT_EQ(image->bytes.size(), image->end() - image->base);
  // The layout-only pass ends where the link does.
  EXPECT_EQ(LayOut({&obj, 1}, 0x1000), image->end());
  // bss bytes are zero.
  uint32_t bss_off = image->placements[2].address - image->base;
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(image->bytes[bss_off + i], 0);
  }
}

TEST(LinkerTest, ResolvesAbs32AndPcrel32) {
  // .text.caller: mov r0, =target (abs32 at +2); call target (pcrel32 at +7,
  // addend -4).
  ObjectFile obj("m.kc");
  std::vector<uint8_t> code(11, 0);
  code[0] = 0x10;  // MovRI
  code[1] = 0;
  code[6] = 0x40;  // Call
  int text = obj.AddSection(TextSection(".text.caller", code));
  int target_sec = obj.AddSection(TextSection(".text.target", {0x42}));
  int target = obj.AddSymbol(Symbol{.name = "target",
                                    .binding = SymbolBinding::kGlobal,
                                    .kind = SymbolKind::kFunction,
                                    .section = target_sec,
                                    .value = 0,
                                    .size = 1});
  obj.AddSymbol(Symbol{.name = "caller",
                       .binding = SymbolBinding::kGlobal,
                       .kind = SymbolKind::kFunction,
                       .section = text,
                       .value = 0,
                       .size = 11});
  obj.sections()[static_cast<size_t>(text)].relocs.push_back(Relocation{
      .offset = 2, .type = RelocType::kAbs32, .symbol = target, .addend = 0});
  obj.sections()[static_cast<size_t>(text)].relocs.push_back(
      Relocation{.offset = 7,
                 .type = RelocType::kPcrel32,
                 .symbol = target,
                 .addend = -4});

  ks::Result<LinkedImage> image = Link({&obj, 1}, 0x2000);
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  uint32_t target_addr = 0;
  for (const LinkedSymbol& sym : image->symbols) {
    if (sym.name == "target") {
      target_addr = sym.address;
    }
  }
  ASSERT_NE(target_addr, 0u);

  // ABS32: word at 0x2002 == S.
  EXPECT_EQ(ks::ReadLe32(image->bytes.data() + 2), target_addr);
  // PCREL32: word at 0x2007 == S - 4 - P; jump lands on S from insn end.
  uint32_t field = ks::ReadLe32(image->bytes.data() + 7);
  EXPECT_EQ(0x2007u + 4u + field, target_addr);
}

TEST(LinkerTest, CrossObjectGlobalResolution) {
  ObjectFile a("a.kc");
  std::vector<uint8_t> call(5, 0);
  call[0] = 0x40;
  int text = a.AddSection(TextSection(".text.main", call));
  int imported = a.InternUndefinedSymbol("helper");
  a.AddSymbol(Symbol{.name = "main",
                     .binding = SymbolBinding::kGlobal,
                     .kind = SymbolKind::kFunction,
                     .section = text,
                     .size = 5});
  a.sections()[static_cast<size_t>(text)].relocs.push_back(
      Relocation{.offset = 1,
                 .type = RelocType::kPcrel32,
                 .symbol = imported,
                 .addend = -4});

  ObjectFile b("b.kc");
  int helper_sec = b.AddSection(TextSection(".text.helper", {0x42}));
  b.AddSymbol(Symbol{.name = "helper",
                     .binding = SymbolBinding::kGlobal,
                     .kind = SymbolKind::kFunction,
                     .section = helper_sec,
                     .size = 1});

  ks::Result<LinkedImage> image =
      Link(std::vector<ObjectFile>{a, b}, 0x1000);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
}

TEST(LinkerTest, UndefinedSymbolFails) {
  ObjectFile a("a.kc");
  std::vector<uint8_t> call(5, 0);
  call[0] = 0x40;
  int text = a.AddSection(TextSection(".text.main", call));
  int imported = a.InternUndefinedSymbol("ghost");
  a.sections()[static_cast<size_t>(text)].relocs.push_back(
      Relocation{.offset = 1,
                 .type = RelocType::kPcrel32,
                 .symbol = imported,
                 .addend = -4});
  ks::Result<LinkedImage> image = Link({&a, 1}, 0x1000);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), ks::ErrorCode::kNotFound);
}

TEST(LinkerTest, ExternalResolverSuppliesKernelExports) {
  ObjectFile a("mod.kc");
  std::vector<uint8_t> call(5, 0);
  call[0] = 0x40;
  int text = a.AddSection(TextSection(".text.main", call));
  int imported = a.InternUndefinedSymbol("printk");
  a.sections()[static_cast<size_t>(text)].relocs.push_back(
      Relocation{.offset = 1,
                 .type = RelocType::kPcrel32,
                 .symbol = imported,
                 .addend = -4});
  ks::Result<LinkedImage> image =
      Link({&a, 1}, 0x1000, [](const std::string& name) {
        return name == "printk" ? std::optional<uint32_t>(0x500)
                                : std::nullopt;
      });
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  uint32_t field = ks::ReadLe32(image->bytes.data() + 1);
  EXPECT_EQ(0x1001u + 4u + field, 0x500u);
}

TEST(LinkerTest, DuplicateGlobalsFail) {
  ObjectFile a("a.kc");
  int sa = a.AddSection(TextSection(".text.f", {0x42}));
  a.AddSymbol(Symbol{.name = "f",
                     .binding = SymbolBinding::kGlobal,
                     .kind = SymbolKind::kFunction,
                     .section = sa,
                     .size = 1});
  ObjectFile b("b.kc");
  int sb = b.AddSection(TextSection(".text.f", {0x42}));
  b.AddSymbol(Symbol{.name = "f",
                     .binding = SymbolBinding::kGlobal,
                     .kind = SymbolKind::kFunction,
                     .section = sb,
                     .size = 1});
  EXPECT_EQ(Link(std::vector<ObjectFile>{a, b}, 0x1000).status().code(),
            ks::ErrorCode::kAlreadyExists);
}

TEST(LinkerTest, DuplicateLocalsAreFine) {
  // Local symbols with the same name in different units coexist; the
  // kallsyms-like table keeps both (7.9% of Linux symbols do this, §6.3).
  ObjectFile a("dst.kc");
  int sa = a.AddSection(DataSection(".data.debug", {0, 0, 0, 0}));
  a.AddSymbol(Symbol{.name = "debug",
                     .binding = SymbolBinding::kLocal,
                     .kind = SymbolKind::kObject,
                     .section = sa,
                     .size = 4});
  ObjectFile b("dst_ca.kc");
  int sb = b.AddSection(DataSection(".data.debug", {0, 0, 0, 0}));
  b.AddSymbol(Symbol{.name = "debug",
                     .binding = SymbolBinding::kLocal,
                     .kind = SymbolKind::kObject,
                     .section = sb,
                     .size = 4});
  ks::Result<LinkedImage> image =
      Link(std::vector<ObjectFile>{a, b}, 0x1000);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  int debug_count = 0;
  for (const LinkedSymbol& sym : image->symbols) {
    if (sym.name == "debug") {
      ++debug_count;
    }
  }
  EXPECT_EQ(debug_count, 2);
}

TEST(LinkerTest, AlignmentIsHonoured) {
  ObjectFile obj("m.kc");
  obj.AddSection(TextSection(".text.a", {0x42}));  // 1 byte
  Section b = TextSection(".text.b", {0x42});
  b.align = 16;
  obj.AddSection(std::move(b));
  ks::Result<LinkedImage> image = Link({&obj, 1}, 0x1001);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->placements[1].address % 16, 0u);
}

// The relocation equation and its inverse agree for both types, including
// a PC-relative word whose site lies above its target (P > S wraps).
TEST(RelocTest, WordAndSymbolRoundTrip) {
  struct Case {
    RelocType type;
    uint32_t s;
    int32_t a;
    uint32_t p;
    uint32_t word;
  };
  const Case cases[] = {
      {RelocType::kAbs32, 0x1000, 8, 0x2000, 0x1008},
      {RelocType::kAbs32, 0x10, -0x20, 0x2000, 0xfffffff0u},
      {RelocType::kPcrel32, 0x2000, -4, 0x1000, 0xffc},
      {RelocType::kPcrel32, 0x1000, -4, 0x2000, 0xffffeffcu},
      {RelocType::kPcrel32, 0x10, 0, 0xfffffff0u, 0x20},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.s);
    EXPECT_EQ(RelocWord(c.type, c.s, c.a, c.p), c.word);
    EXPECT_EQ(RelocSymbol(c.type, c.word, c.a, c.p), c.s);
  }
}

}  // namespace
}  // namespace kelf
