// Unit tests for base: Status/Result, string helpers, endian helpers.

#include <gtest/gtest.h>

#include "base/endian.h"
#include "base/json.h"
#include "base/status.h"
#include "base/strings.h"
#include "json_checker.h"

namespace ks {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kOk);
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = NotFound("no symbol 'foo'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_EQ(st.message(), "no symbol 'foo'");
  EXPECT_EQ(st.ToString(), "not_found: no symbol 'foo'");
}

TEST(StatusTest, WithContextPrepends) {
  Status st = InvalidArgument("bad magic");
  st.WithContext("parsing module");
  EXPECT_EQ(st.message(), "parsing module: bad magic");
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  Status st;
  st.WithContext("anything");
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.message(), "");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(ErrorCodeName(ErrorCode::kOk), "ok");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kNotFound), "not_found");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kAlreadyExists), "already_exists");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kFailedPrecondition),
            "failed_precondition");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kAborted), "aborted");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kUnimplemented), "unimplemented");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kInternal), "internal");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kResourceExhausted),
            "resource_exhausted");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

Result<int> Half(int v) {
  if (v % 2 != 0) {
    return InvalidArgument("odd");
  }
  return v / 2;
}

Result<int> Quarter(int v) {
  KS_ASSIGN_OR_RETURN(int h, Half(v));
  KS_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);

  Result<int> err = Quarter(6);  // 6/2=3, 3 is odd
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kInvalidArgument);
}

Status NeedsEven(int v) {
  KS_RETURN_IF_ERROR(Half(v).status());
  return OkStatus();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(NeedsEven(4).ok());
  EXPECT_FALSE(NeedsEven(5).ok());
}

TEST(StringsTest, StrPrintfFormats) {
  EXPECT_EQ(StrPrintf("x=%d y=%s", 7, "z"), "x=7 y=z");
  EXPECT_EQ(StrPrintf("%s", ""), "");
  // Long output exceeding any small static buffer.
  std::string big(500, 'a');
  EXPECT_EQ(StrPrintf("%s", big.c_str()).size(), 500u);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitLinesDropsTrailingNewline) {
  EXPECT_EQ(SplitLines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitLines("a\nb"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitLines("\n"), (std::vector<std::string>{""}));
  EXPECT_TRUE(SplitLines("").empty());
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith(".text.foo", ".text."));
  EXPECT_FALSE(StartsWith(".tex", ".text"));
  EXPECT_TRUE(EndsWith("file.kc", ".kc"));
  EXPECT_FALSE(EndsWith("kc", ".kc"));
}

TEST(StringsTest, TrimStripsWhitespace) {
  EXPECT_EQ(Trim("  a b \t\r\n"), "a b");
  EXPECT_EQ(Trim("\t \n"), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, Hex32) {
  EXPECT_EQ(Hex32(0), "0x00000000");
  EXPECT_EQ(Hex32(0xf0111107u), "0xf0111107");
}

TEST(EndianTest, RoundTrip32) {
  uint8_t buf[4];
  WriteLe32(buf, 0x12345678u);
  EXPECT_EQ(buf[0], 0x78);
  EXPECT_EQ(buf[3], 0x12);
  EXPECT_EQ(ReadLe32(buf), 0x12345678u);
}

TEST(EndianTest, RoundTrip16And64) {
  uint8_t buf[8];
  WriteLe16(buf, 0xbeef);
  EXPECT_EQ(ReadLe16(buf), 0xbeef);
  WriteLe64(buf, 0x0102030405060708ull);
  EXPECT_EQ(ReadLe64(buf), 0x0102030405060708ull);
  EXPECT_EQ(buf[0], 0x08);
}

// A report-like type: the writer embeds anything with a ToJson() member.
struct Pair {
  int a = 0;
  std::string b;
  std::string ToJson() const {
    return JsonWriter().BeginObject().Field("a", a).Field("b", b)
        .EndObject().Take();
  }
};

TEST(JsonWriterTest, EscapesEveryControlByte) {
  std::string json =
      JsonWriter()
          .BeginObject()
          .Field("quote", "say \"hi\"")
          .Field("backslash", "a\\b")
          .Field("newline", "line one\nline two")
          .Field("tab", "a\tb")
          .Field("ctrl", std::string("x\x01y\x1f"))
          .Field("empty", "")
          .Field("", std::string())
          .EndObject()
          .Take();
  EXPECT_EQ(json,
            "{\"quote\":\"say \\\"hi\\\"\",\"backslash\":\"a\\\\b\","
            "\"newline\":\"line one\\nline two\",\"tab\":\"a\\tb\","
            "\"ctrl\":\"x\\u0001y\\u001f\",\"empty\":\"\",\"\":\"\"}");
  EXPECT_TRUE(test::ValidJson(json)) << json;
}

TEST(JsonWriterTest, NumbersBoolsAndDoubles) {
  std::string json = JsonWriter()
                         .BeginObject()
                         .Field("max", UINT64_MAX)
                         .Field("neg", -42)
                         .Field("min64", INT64_MIN)
                         .Field("u32", uint32_t{4000000000u})
                         .Field("yes", true)
                         .Field("no", false)
                         .Field("rate", 2.0 / 3.0)
                         .Field("zero", 0.0)
                         .EndObject()
                         .Take();
  EXPECT_EQ(json,
            "{\"max\":18446744073709551615,\"neg\":-42,"
            "\"min64\":-9223372036854775808,\"u32\":4000000000,"
            "\"yes\":true,\"no\":false,\"rate\":0.667,\"zero\":0.000}");
  EXPECT_TRUE(test::ValidJson(json)) << json;
}

TEST(JsonWriterTest, NestedArraysAndReports) {
  std::vector<Pair> pairs = {{1, "one"}, {-2, "two\n"}};
  std::vector<std::string> names = {"a\"", ""};
  std::string json = JsonWriter()
                         .BeginArray()
                         .Value(pairs)
                         .BeginArray()
                         .BeginArray()
                         .EndArray()
                         .Value(names)
                         .EndArray()
                         .Value(std::vector<Pair>{})
                         .Value(pairs[0])
                         .EndArray()
                         .Take();
  EXPECT_EQ(json,
            "[[{\"a\":1,\"b\":\"one\"},{\"a\":-2,\"b\":\"two\\n\"}],"
            "[[],[\"a\\\"\",\"\"]],[],{\"a\":1,\"b\":\"one\"}]");
  EXPECT_TRUE(test::ValidJson(json)) << json;
}

// The test checker itself must be strict, or an escaping bug slips through.
TEST(JsonCheckerTest, ReadsTopLevelMembersBack) {
  const std::string json =
      "{\"n\": -2.5e1, \"inner\": {\"n\": 7}, \"list\": [[1, 2, 3], {}],"
      " \"empty\": [], \"s\": \"n\"}";
  EXPECT_EQ(test::JsonNumberAt(json, "n"), -25.0);
  EXPECT_EQ(test::JsonArrayLengthAt(json, "list"), 2u);
  EXPECT_EQ(test::JsonArrayLengthAt(json, "empty"), 0u);
  EXPECT_EQ(test::JsonNumberAt(json, "s"), std::nullopt);
  EXPECT_EQ(test::JsonNumberAt(json, "missing"), std::nullopt);
  EXPECT_EQ(test::JsonArrayLengthAt(json, "n"), std::nullopt);
  EXPECT_EQ(test::JsonNumberAt("{\"n\": 1,}", "n"), std::nullopt);
}

TEST(JsonCheckerTest, RejectsWhatRfc8259Rejects) {
  EXPECT_TRUE(
      test::ValidJson("{\"a\":[1,-0.5,2e10,\"\\u00e9\\/\"],\"b\":null}"));
  EXPECT_FALSE(test::ValidJson("\"raw\nnewline\""));
  EXPECT_FALSE(test::ValidJson(std::string("\"nul\0byte\"", 10)));
  EXPECT_FALSE(test::ValidJson("\"bad \\x escape\""));
  EXPECT_FALSE(test::ValidJson("\"short \\u12\""));
  EXPECT_FALSE(test::ValidJson("\"unterminated"));
  EXPECT_FALSE(test::ValidJson("[01]"));
  EXPECT_FALSE(test::ValidJson("[1.]"));
  EXPECT_FALSE(test::ValidJson("[nan]"));
  EXPECT_FALSE(test::ValidJson("{\"a\":1,}"));
  EXPECT_FALSE(test::ValidJson("{\"a\":1}{"));
}

}  // namespace
}  // namespace ks
