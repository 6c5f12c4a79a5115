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
#include <string_view>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace hetflow::util {
namespace {

/// The printf formatting Json used before the shared formatter; kept
/// here only as the reference the formatter is checked against.
/// Writes into `buf` (64 bytes) and returns the length.
std::size_t printf_reference(double d, char* buf) {
  if (!std::isfinite(d)) {
    std::strcpy(buf, "null");
    return 4;
  }
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    return static_cast<std::size_t>(std::snprintf(buf, 64, "%.0f", d));
  }
  return static_cast<std::size_t>(std::snprintf(buf, 64, "%.17g", d));
}

std::string printf_reference(double d) {
  char buf[64];
  return std::string(buf, printf_reference(d, buf));
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

/// Counts the values on which append_json_number and the printf
/// reference disagree, keeping the first few for the failure message.
class Differential {
 public:
  void check(double d) {
    ++checked_;
    out_.clear();
    append_json_number(out_, d);
    char want[64];
    const std::string_view reference(want, printf_reference(d, want));
    if (out_ != reference && ++mismatches_ <= 5) {
      char exact[64];
      std::snprintf(exact, sizeof exact, "%a", d);
      report_ += std::string(exact) + ": got " + out_ + ", want ";
      report_ += reference;
      report_ += '\n';
    }
  }
  /// `d` and `-d`.
  void check_both_signs(double d) {
    check(d);
    check(-d);
  }

  void merge(const Differential& other) {
    checked_ += other.checked_;
    mismatches_ += other.mismatches_;
    report_ += other.report_;
  }

  std::size_t checked() const { return checked_; }
  std::size_t mismatches() const { return mismatches_; }
  const std::string& report() const { return report_; }

 private:
  std::string out_;
  std::string report_;
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

TEST(JsonNumber, MatchesThePrintfReferenceAcrossTheFixedNotationRange) {
  // Non-integral 1e-4 <= |d| < 1e15 take the integer-arithmetic path;
  // the values around it take std::to_chars. Random bit patterns land
  // in that range only ~3 % of the time, so aim at it.
  Differential diff;
  // Log-uniform over [1e-5, 1e16), both signs. printf's %.17g takes
  // about 0.8 us a value, so this sweep is split over four threads.
  constexpr int kThreads = 4;
  std::vector<Differential> shards(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shard = shards[t], t] {
      Rng rng(17 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 480000 / kThreads; ++i) {
        shard.check_both_signs(std::pow(10.0, rng.uniform(-5.0, 16.0)));
      }
    });
  }
  // +-64 ulps around every power of ten from 1e-5 to 1e16, where the
  // decimal exponent changes (and 1e-4 / 1e15 bound the fast path).
  for (int p = -5; p <= 16; ++p) {
    const double power = std::pow(10.0, p);
    double below = power;
    double above = power;
    diff.check_both_signs(power);
    for (int ulp = 0; ulp < 64; ++ulp) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, DBL_MAX);
      diff.check_both_signs(below);
      diff.check_both_signs(above);
    }
  }
  // Exact ties at the 17th significant digit: in the decade
  // [10^E, 10^(E+1)) an odd multiple of 2^-(17-E) has 18 significant
  // digits, the last a 5, so only half-to-even rounding gets it right.
  for (int exp10 = -4; exp10 <= 14; ++exp10) {
    const double unit = std::ldexp(1.0, exp10 - 17);
    const double lo = std::pow(10.0, exp10) / unit;
    const double hi = std::pow(10.0, exp10 + 1) / unit;
    Rng rng(static_cast<std::uint64_t>(exp10 + 100));
    for (int i = 0; i < 2000; ++i) {
      const double odd = 2.0 * std::floor(rng.uniform(lo, hi) / 2.0) + 1.0;
      diff.check_both_signs(odd * unit);
    }
  }
  // The fast path's binary-exponent ends and their neighbours.
  for (double edge : {std::ldexp(1.0, -14), std::ldexp(1.0, 50)}) {
    diff.check_both_signs(edge);
    double below = edge;
    double above = edge;
    for (int ulp = 0; ulp < 64; ++ulp) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, DBL_MAX);
      diff.check_both_signs(below);
      diff.check_both_signs(above);
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    threads[t].join();
    diff.merge(shards[t]);
  }
  EXPECT_GE(diff.checked(), 1000000u);
  EXPECT_EQ(diff.mismatches(), 0u) << diff.report();
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

TEST(JsonNumber, RawFormStaysInsideItsRoom) {
  std::vector<double> values = edge_numbers();
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(d);
    values.push_back(rng.uniform(-1e15, 1e15));
  }
  for (const double d : values) {
    char room[kJsonNumberRoom + 16];
    std::memset(room, '#', sizeof room);
    const char* end = append_json_number(room, d);
    ASSERT_EQ(std::string_view(room, end), printf_reference(d)) << d;
    for (std::size_t i = kJsonNumberRoom; i < sizeof room; ++i) {
      ASSERT_EQ(room[i], '#') << d;
    }
  }
}

TEST(JsonNumber, ManyValuesAcrossBufferGrowth) {
  JsonWriter w(0);
  std::string want = "[";
  Rng rng(5);
  w.begin_array();
  for (int i = 0; i < 50000; ++i) {
    const double d = rng.uniform(-1e6, 1e6);
    w.number(d);
    want += i == 0 ? "" : ",";
    want += printf_reference(d);
  }
  w.end_array();
  EXPECT_EQ(w.take(), want + "]");
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

/// every_special_byte() as append_json_string writes it, unquoted.
constexpr const char* kEscapedSpecialBytes =
    "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
    "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
    "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
    "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
    "\\\"\\\\/\x7f"
    "h\xc3\xa9llo \xe2\x9c\x93 \xf0\x9d\x84\x9e";

TEST(JsonString, EscapesControlBytesQuoteAndBackslashOnly) {
  std::string out;
  append_json_string(out, every_special_byte());
  EXPECT_EQ(out, '"' + std::string(kEscapedSpecialBytes) + '"');
}

TEST(JsonString, RoundTripsThroughTheParser) {
  std::string out;
  const std::string s = every_special_byte();
  append_json_string(out, s);
  EXPECT_EQ(Json::parse(out).as_string(), s);
}

std::string repeated(const std::string& part, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) {
    out += part;
  }
  return out;
}

TEST(JsonString, RawFormWritesExactlyTheMeasuredSize) {
  const std::string special = every_special_byte();
  for (const std::string& s :
       {std::string(), std::string("plain"), special, repeated(special, 50),
        std::string(5000, 'x')}) {
    std::string via_string;
    append_json_string(via_string, s);
    EXPECT_EQ(json_string_size(s), via_string.size());
    EXPECT_LE(json_string_size(s), json_string_bound(s.size()));
    std::vector<char> room(json_string_size(s));
    char* end = append_json_string(room.data(), s);
    EXPECT_EQ(std::string_view(room.data(), end), via_string);
  }
}

TEST(JsonString, LongValuesMatchTheEscapedText) {
  // Over the writer's short-string size: the room is measured, not
  // bounded, and the buffer grows several times.
  const std::string value = repeated(every_special_byte(), 400);
  const std::string text = '"' + repeated(kEscapedSpecialBytes, 400) + '"';
  JsonWriter compact(0);
  compact.begin_array().string(value).string("s").string(value).end_array();
  EXPECT_EQ(compact.take(), "[" + text + ",\"s\"," + text + "]");
  JsonWriter pretty(2);
  pretty.begin_object().key("v").string(value).end_object();
  EXPECT_EQ(pretty.take(), "{\n  \"v\": " + text + "\n}");
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

TEST(JsonWriterKeys, OrderCheckReadsThePreviousKeyAfterGrowth) {
  // The previous key is compared where it was written, after the buffer
  // has moved, or from its copy when escaping changed its bytes.
  const std::string big(200000, 'x');
  JsonWriter w(0);
  w.begin_object().key("k").string(big).key("l").string(big);
  try {
    w.key("k");
    FAIL() << "a key sorting before the previous one must throw";
  } catch (const InternalError& e) {
    EXPECT_STREQ(e.what(), "JsonWriter: key 'k' does not sort after 'l'");
  }
  const std::string escaped = repeated("a\n", 200);  // measured, copied
  JsonWriter e(2);
  e.begin_object().key(escaped).number(1).key(escaped + "b").number(2);
  EXPECT_THROW(e.key(escaped), InternalError);
  JsonWriter pending(0);
  pending.begin_object().key("a\"b");
  try {
    pending.end_object();
    FAIL() << "a key without a value must throw";
  } catch (const InternalError& error) {
    EXPECT_STREQ(error.what(), "JsonWriter: key 'a\"b' has no value");
  }
}

TEST(JsonWriterKeys, JsonObjectInsertedOutOfOrderDumps) {
  // Json::dump writes its std::map keys through JsonWriter::key: keys
  // inserted out of order (escapes, a prefix, UTF-8) come out sorted,
  // pass the key-order check, and parse back to the same object.
  Json dom = Json::object();
  for (const char* key : {"z", "task", "\xc3\xa9", "t", "a\"b", "a\n"}) {
    dom[key] = key;
  }
  const std::string compact = dom.dump();
  EXPECT_EQ(compact,
            "{\"a\\n\":\"a\\n\",\"a\\\"b\":\"a\\\"b\",\"t\":\"t\","
            "\"task\":\"task\",\"z\":\"z\",\"\xc3\xa9\":\"\xc3\xa9\"}");
  EXPECT_EQ(Json::parse(compact).dump(), compact);
  EXPECT_EQ(Json::parse(dom.dump_pretty()).dump(), compact);
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
