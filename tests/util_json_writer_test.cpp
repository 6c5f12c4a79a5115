// The streaming writer must produce exactly what the Json DOM's dump()
// / dump_pretty() produce for the same value (numbers, strings and
// structure, in both indent modes), and the shared number formatter
// must agree with the printf reference it replaced ("%.0f" for small
// integral values, "%.17g" otherwise).
#include "util/json_writer.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace hetflow::util {
namespace {

/// The printf formatting Json used before the shared formatter; kept
/// here only as the reference the formatter is checked against.
std::string printf_reference(double d) {
  if (!std::isfinite(d)) {
    return "null";
  }
  char buf[64];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", d);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  return buf;
}

std::string formatted(double d) {
  std::string out;
  append_json_number(out, d);
  return out;
}

std::string written(double d, int indent) {
  JsonWriter w(indent);
  w.number(d);
  return w.take();
}

std::vector<double> edge_numbers() {
  const double two53 = 9007199254740992.0;
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          -42.0,
          -123456789.0,
          1e15 - 1,
          -(1e15 - 1),
          1e15,
          -1e15,
          two53 - 1,
          two53,
          two53 + 2,  // 2^53 + 1 is not representable; its neighbour is
          0.1,
          -0.1,
          1.5,
          1e-5,
          5e-324,
          DBL_MIN,
          DBL_MAX,
          -DBL_MAX,
          1e300,
          0.30000000000000004,
          123.456,
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
}

TEST(JsonNumber, MatchesThePrintfReference) {
  for (double d : edge_numbers()) {
    EXPECT_EQ(formatted(d), printf_reference(d)) << d;
  }
}

TEST(JsonNumber, MatchesThePrintfReferenceOnRandomBitPatterns) {
  Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    ASSERT_EQ(formatted(d), printf_reference(d)) << i;
    // Integral values below 1e15 take the integer path.
    const double integral = std::trunc(std::fmod(d, 1e15));
    ASSERT_EQ(formatted(integral), printf_reference(integral)) << i;
  }
}

TEST(JsonNumber, KnownSpellings) {
  EXPECT_EQ(formatted(-0.0), "-0");
  EXPECT_EQ(formatted(1e15 - 1), "999999999999999");
  EXPECT_EQ(formatted(1e15), "1000000000000000");
  EXPECT_EQ(formatted(9007199254740993.0), "9007199254740992");
  EXPECT_EQ(formatted(9007199254740991.0), "9007199254740991");
  EXPECT_EQ(formatted(0.1), "0.10000000000000001");
  EXPECT_EQ(formatted(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(formatted(5e-324), "4.9406564584124654e-324");
  EXPECT_EQ(formatted(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(formatted(-7.0), "-7");
  EXPECT_EQ(formatted(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(formatted(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(formatted(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, WriterAndDomAgree) {
  for (double d : edge_numbers()) {
    EXPECT_EQ(written(d, 0), Json(d).dump()) << d;
    EXPECT_EQ(written(d, 2), Json(d).dump_pretty()) << d;
  }
}

std::string every_special_byte() {
  std::string s;
  for (int c = 0; c < 0x20; ++c) {
    s += static_cast<char>(c);
  }
  s += "\"\\/\x7f";
  s += "h\xc3\xa9llo \xe2\x9c\x93 \xf0\x9d\x84\x9e";  // é, ✓, U+1D11E
  return s;
}

TEST(JsonString, WriterAndDomAgree) {
  const std::string s = every_special_byte();
  for (int indent : {0, 2}) {
    JsonWriter w(indent);
    w.string(s);
    EXPECT_EQ(w.take(), indent == 0 ? Json(s).dump() : Json(s).dump_pretty());
  }
}

TEST(JsonString, EscapesControlBytesQuoteAndBackslashOnly) {
  std::string out;
  append_json_string(out, every_special_byte());
  EXPECT_EQ(out,
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
            "\\\"\\\\/\x7f"
            "h\xc3\xa9llo \xe2\x9c\x93 \xf0\x9d\x84\x9e\"");
}

TEST(JsonString, RoundTripsThroughTheParser) {
  std::string out;
  const std::string s = every_special_byte();
  append_json_string(out, s);
  EXPECT_EQ(Json::parse(out).as_string(), s);
}

/// The same nested document built as a DOM and streamed by hand: empty
/// and non-empty containers at several depths.
Json nested_dom() {
  Json doc = Json::object();
  doc["a"] = Json::array();
  doc["b"] = Json::object();
  Json list = Json::array();
  list.push_back(1);
  Json inner = Json::object();
  inner["d"] = nullptr;
  inner["e"] = Json::array();
  list.push_back(std::move(inner));
  list.push_back(Json::array());
  Json deep = Json::array();
  deep.push_back(Json::object());
  deep.push_back("x");
  list.push_back(std::move(deep));
  doc["c"] = std::move(list);
  doc["f"] = true;
  doc["g"] = -0.5;
  return doc;
}

std::string nested_streamed(int indent) {
  JsonWriter w(indent);
  w.begin_object();
  w.key("a").begin_array().end_array();
  w.key("b").begin_object().end_object();
  w.key("c").begin_array();
  w.number(1);
  w.begin_object().key("d").null().key("e").begin_array().end_array();
  w.end_object();
  w.begin_array().end_array();
  w.begin_array().begin_object().end_object().string("x").end_array();
  w.end_array();
  w.key("f").boolean(true);
  w.key("g").number(-0.5);
  w.end_object();
  return w.take();
}

TEST(JsonWriterStructure, CompactMatchesDump) {
  EXPECT_EQ(nested_streamed(0), nested_dom().dump());
  EXPECT_EQ(nested_streamed(0),
            "{\"a\":[],\"b\":{},\"c\":[1,{\"d\":null,\"e\":[]},[],[{},\"x\"]],"
            "\"f\":true,\"g\":-0.5}");
}

TEST(JsonWriterStructure, PrettyMatchesDumpPretty) {
  EXPECT_EQ(nested_streamed(2), nested_dom().dump_pretty());
  EXPECT_EQ(nested_streamed(2),
            "{\n"
            "  \"a\": [],\n"
            "  \"b\": {},\n"
            "  \"c\": [\n"
            "    1,\n"
            "    {\n"
            "      \"d\": null,\n"
            "      \"e\": []\n"
            "    },\n"
            "    [],\n"
            "    [\n"
            "      {},\n"
            "      \"x\"\n"
            "    ]\n"
            "  ],\n"
            "  \"f\": true,\n"
            "  \"g\": -0.5\n"
            "}");
}

TEST(JsonWriterStructure, EmptyTopLevelContainers) {
  for (int indent : {0, 2}) {
    JsonWriter w(indent);
    w.begin_object().end_object().newline().begin_array().end_array();
    EXPECT_EQ(w.take(), "{}\n[]");
  }
}

TEST(JsonWriterStructure, NewlineSeparatesJsonlRecords) {
  JsonWriter w(0);
  for (int i = 0; i < 2; ++i) {
    w.begin_object().key("i").number(i).end_object().newline();
  }
  EXPECT_EQ(w.take(), "{\"i\":0}\n{\"i\":1}\n");
}

TEST(JsonWriterStructure, RawWritesAPreSerializedValue) {
  std::string name;
  append_json_string(name, "gpu\"0");
  JsonWriter w(0);
  w.begin_array().raw(name).raw(name).end_array();
  EXPECT_EQ(w.take(), "[\"gpu\\\"0\",\"gpu\\\"0\"]");
}

TEST(JsonWriterKeys, OutOfOrderKeyThrows) {
  JsonWriter w(0);
  w.begin_object().key("b").number(1);
  EXPECT_THROW(w.key("a"), InternalError);
}

TEST(JsonWriterKeys, RepeatedKeyThrows) {
  JsonWriter w(2);
  w.begin_object().key("a").number(1);
  EXPECT_THROW(w.key("a"), InternalError);
}

TEST(JsonWriterKeys, OrderIsPerObject) {
  // A nested object starts its own order; the outer one resumes after.
  JsonWriter w(0);
  w.begin_object().key("m").begin_object().key("z").number(1).end_object();
  w.key("n").begin_object().key("a").number(2).end_object();
  EXPECT_THROW(w.key("m"), InternalError);
}

TEST(JsonWriterKeys, OrderIsStdMapOrder) {
  // Prefixes sort first and bytes compare unsigned, as in std::map.
  JsonWriter w(0);
  w.begin_object();
  w.key("t").number(0).key("task").number(1).key("z").number(2);
  w.key("\xc3\xa9").number(3);
  w.end_object();
  Json dom = Json::object();
  dom["t"] = 0;
  dom["task"] = 1;
  dom["z"] = 2;
  dom["\xc3\xa9"] = 3;
  EXPECT_EQ(w.take(), dom.dump());
}

TEST(JsonWriterMisuse, Throws) {
  {
    JsonWriter w(0);
    w.begin_object();
    EXPECT_THROW(w.number(1), InternalError);  // value without a key
  }
  {
    JsonWriter w(0);
    w.begin_array();
    EXPECT_THROW(w.key("a"), InternalError);  // key in an array
    EXPECT_THROW(w.end_object(), InternalError);
  }
  {
    JsonWriter w(0);
    w.begin_object().key("a");
    EXPECT_THROW(w.key("b"), InternalError);  // key without a value
    EXPECT_THROW(w.end_object(), InternalError);
  }
  {
    JsonWriter w(0);
    w.begin_array();
    EXPECT_THROW(w.newline(), InternalError);
    EXPECT_THROW(w.take(), InternalError);
  }
  EXPECT_THROW(JsonWriter(0).end_array(), InternalError);
  EXPECT_THROW(JsonWriter(-1), InvalidArgument);
}

}  // namespace
}  // namespace hetflow::util
