#include "util/json.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hetflow::util {
namespace {

TEST(Json, ScalarDump) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-1.5).dump(), "-1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Json("a\\b").dump(), "\"a\\\\b\"");
  EXPECT_EQ(Json("a\nb").dump(), "\"a\\nb\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectAndArrayBuilders) {
  Json doc = Json::object();
  doc["name"] = "hetflow";
  doc["count"] = 3;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  doc["items"] = std::move(arr);
  EXPECT_EQ(doc.dump(), "{\"count\":3,\"items\":[1,\"two\"],\"name\":\"hetflow\"}");
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_TRUE(doc.contains("name"));
  EXPECT_FALSE(doc.contains("missing"));
}

TEST(Json, IndexingAutoVivifiesObject) {
  Json doc;  // null
  doc["a"]["b"] = 1;
  EXPECT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("a").at("b").as_number(), 1.0);
}

TEST(Json, AtThrowsOnMissingKey) {
  Json doc = Json::object();
  EXPECT_THROW(doc.at("nope"), ParseError);
}

TEST(Json, KindMismatchThrows) {
  EXPECT_THROW(Json(1).as_string(), InternalError);
  EXPECT_THROW(Json("x").as_number(), InternalError);
  EXPECT_THROW(Json(true).as_array(), InternalError);
  EXPECT_THROW(Json(nullptr).size(), InternalError);
}

TEST(Json, ParseScalars) {
  EXPECT_EQ(Json::parse("null"), Json(nullptr));
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse(" -3.5e2 "), Json(-350.0));
  EXPECT_EQ(Json::parse("\"hey\""), Json("hey"));
}

TEST(Json, ParseNested) {
  const Json doc = Json::parse(R"({"a": [1, 2, {"b": null}], "c": true})");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a").as_array()[2].at("b"), Json(nullptr));
  EXPECT_TRUE(doc.at("c").as_bool());
}

TEST(Json, ParseEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");  // é
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
  EXPECT_EQ(Json::parse(R"("\\\/")").as_string(), "\\/");
}

TEST(Json, RoundTripThroughDump) {
  Json doc = Json::object();
  doc["pi"] = 3.14159;
  doc["neg"] = -7;
  doc["text"] = "line\nbreak \"quoted\"";
  doc["flags"] = Json::array();
  doc["flags"].push_back(true);
  doc["flags"].push_back(nullptr);
  const Json reparsed = Json::parse(doc.dump());
  EXPECT_EQ(reparsed, doc);
  const Json reparsed_pretty = Json::parse(doc.dump_pretty());
  EXPECT_EQ(reparsed_pretty, doc);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), ParseError);
  EXPECT_THROW(Json::parse("tru"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
  EXPECT_THROW(Json::parse("{'a':1}"), ParseError);
  EXPECT_THROW(Json::parse("\"bad\\q\""), ParseError);
  EXPECT_THROW(Json::parse("\"bad\\u12g4\""), ParseError);
}

TEST(Json, ParseLiteralsAndEmptyContainers) {
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_EQ(Json::parse("{}"), Json::object());
  EXPECT_EQ(Json::parse(" [ ] "), Json::array());
  const Json doc = Json::parse(R"({"a": {}, "b": [[], {}]})");
  EXPECT_EQ(doc.at("a"), Json::object());
  EXPECT_EQ(doc.at("b").size(), 2u);
}

TEST(Json, ParseUnicodeEscapesAsUtf8) {
  EXPECT_EQ(Json::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse(R"("\u00E9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse(R"("\u20AC")").as_string(), "\xe2\x82\xac");
  EXPECT_EQ(Json::parse(R"("\b\f\r\t\"")").as_string(), "\b\f\r\t\"");
}

TEST(Json, ParseRejectsEachMalformedForm) {
  for (const char* text :
       {"fals", "nul", "{\"a\":1 \"b\":2}", "[1 2]", "-", "1e", "1.2.3",
        "\"tab\there\"", "\"nl\nhere\""}) {
    EXPECT_THROW(Json::parse(text), ParseError) << text;
  }
}

TEST(Json, EveryKindMismatchThrows) {
  Json number(1);
  Json array = Json::array();
  const Json& const_array = array;
  EXPECT_THROW(number.as_bool(), InternalError);
  EXPECT_THROW(number.as_array(), InternalError);
  EXPECT_THROW(const_array.as_object(), InternalError);
  EXPECT_THROW(array.as_object(), InternalError);
}

TEST(Json, PushBackAutoVivifiesArray) {
  Json doc;  // null
  doc.push_back(1);
  doc.push_back("two");
  EXPECT_TRUE(doc.is_array());
  EXPECT_EQ(doc.dump(), "[1,\"two\"]");
}

TEST(Json, ErrorsIncludeByteOffset) {
  try {
    Json::parse("[1, x]");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("byte 4"), std::string::npos);
  }
}

TEST(Json, NonFiniteSerializesAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(Json, LargeIntegersKeepPrecision) {
  EXPECT_EQ(Json(static_cast<std::int64_t>(1234567890123)).dump(),
            "1234567890123");
}

TEST(Json, PrettyPrintShape) {
  Json doc = Json::object();
  doc["a"] = 1;
  const std::string pretty = doc.dump_pretty();
  EXPECT_EQ(pretty, "{\n  \"a\": 1\n}");
}

TEST(Json, DeterministicKeyOrder) {
  Json doc = Json::object();
  doc["zebra"] = 1;
  doc["apple"] = 2;
  EXPECT_EQ(doc.dump(), "{\"apple\":2,\"zebra\":1}");
}

}  // namespace
}  // namespace hetflow::util
