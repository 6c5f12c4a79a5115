#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"
#include "util/json_writer.hpp"

namespace hetflow::util {

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw InternalError(std::string("Json: value is not a ") + wanted);
}

}  // namespace

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) {
    return *b;
  }
  kind_error("bool");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) {
    return *d;
  }
  kind_error("number");
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) {
    return *s;
  }
  kind_error("string");
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) {
    return *a;
  }
  kind_error("array");
}

JsonArray& Json::as_array() {
  if (JsonArray* a = std::get_if<JsonArray>(&value_)) {
    return *a;
  }
  kind_error("array");
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) {
    return *o;
  }
  kind_error("object");
}

JsonObject& Json::as_object() {
  if (JsonObject* o = std::get_if<JsonObject>(&value_)) {
    return *o;
  }
  kind_error("object");
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) {
    value_ = JsonObject{};
  }
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  const JsonObject& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw ParseError("Json: missing key '" + key + "'");
  }
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

void Json::push_back(Json value) {
  if (is_null()) {
    value_ = JsonArray{};
  }
  as_array().push_back(std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) {
    return as_array().size();
  }
  if (is_object()) {
    return as_object().size();
  }
  kind_error("container");
}

namespace {

/// Two decimal digits per entry: "00", "01", ..., "99".
constexpr char kDigitPairs[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/// Writes `value` < 10^8 as exactly eight digits.
void write_8_digits(char* out, std::uint32_t value) {
  for (int i = 6; i >= 0; i -= 2) {
    std::memcpy(out + i, kDigitPairs + 2 * (value % 100), 2);
    value /= 100;
  }
}

constexpr std::uint64_t kTen8 = 100000000;
constexpr std::uint64_t kTen16 = kTen8 * kTen8;
constexpr std::uint64_t kTen17 = 10 * kTen16;

/// m * 5^k * 2^(k + e), rounded half to even, for a shift -(k + e) in
/// [1, 63]. The product is exact in 128 bits for m < 2^53 and k <= 21.
std::uint64_t scaled_rounded(std::uint64_t m, int e, int k) {
  static constexpr std::uint64_t kPow5[] = {
      1,           5,            25,           125,           625,
      3125,        15625,        78125,        390625,        1953125,
      9765625,     48828125,     244140625,    1220703125,    6103515625,
      30517578125, 152587890625, 762939453125, 3814697265625, 19073486328125,
      95367431640625, 476837158203125};
  const auto shift = static_cast<unsigned>(-(k + e));
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(m) * kPow5[k];
  auto digits = static_cast<std::uint64_t>(scaled >> shift);
  const std::uint64_t dropped =
      static_cast<std::uint64_t>(scaled) & ((std::uint64_t{1} << shift) - 1);
  const std::uint64_t half = std::uint64_t{1} << (shift - 1);
  if (dropped > half || (dropped == half && (digits & 1) != 0)) {
    ++digits;
  }
  return digits;
}

/// printf's %.17g of a finite, non-integral `value` with
/// 1e-4 <= |value| < 1e15, written to `out` (36 bytes of room); returns
/// the end. In that range %.17g prints fixed notation (its exponent
/// lies in [-4, 16]), so the text is the 17 significant digits of
/// |value| rounded half to even, trailing zeros dropped, with the point
/// placed by the decimal exponent E. With |value| = m * 2^e and
/// k = 16 - E, those digits are m * 5^k * 2^(k + e) rounded, computed
/// exactly by scaled_rounded (here k lies in [1, 21] and the shift in
/// [1, 46]).
char* format_fixed17(char* out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  // Every value in range is normal: |value| = m * 2^e, 2^52 <= m < 2^53.
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e = biased - 1075;
  // With 2^b <= |value| < 2^(b+1), E is floor(b * log10 2) or one more
  // (78913 / 2^18 is log10 2 to enough bits for |b| < 1650). The guess
  // is too low while the rounded digits reach 10^17, which also covers
  // a value that rounds up to the next power of ten.
  const int b = biased - 1023;
  int exp10 = (b * 78913) >> 18;
  std::uint64_t digits = scaled_rounded(m, e, 16 - exp10);
  while (digits >= kTen17) {
    ++exp10;
    digits = scaled_rounded(m, e, 16 - exp10);
  }

  // The 17 digits, then room for the fraction copy below to over-read.
  char text[32] = {};
  text[0] = static_cast<char>('0' + digits / kTen16);
  write_8_digits(text + 1, static_cast<std::uint32_t>(digits / kTen8 % kTen8));
  write_8_digits(text + 9, static_cast<std::uint32_t>(digits % kTen8));
  int last = 16;  // the last digit %g keeps: trailing zeros are dropped
  while (text[last] == '0') {
    --last;
  }

  // Constant-size copies only (17 digits, then the 16 that can follow
  // the point); `out` has room for what they write past the end.
  if (value < 0) {
    *out++ = '-';
  }
  if (exp10 >= 0) {
    const int whole = exp10 + 1;
    std::memcpy(out, text, 17);
    std::memcpy(out + whole + 1, text + whole, 16);
    out[whole] = '.';
    return out + (last >= whole ? last + 2 : whole);
  }
  std::memcpy(out, "0.000", 5);
  out += 1 - exp10;
  std::memcpy(out, text, 17);
  return out + last + 1;
}

}  // namespace

char* append_json_number(char* out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; serialize as null (standard-compatible).
    std::memcpy(out, "null", 4);
    return out + 4;
  }
  const double magnitude = std::fabs(value);
  if (value == std::floor(value) && magnitude < 1e15) {
    if (value == 0.0 && std::signbit(value)) {
      std::memcpy(out, "-0", 2);  // %.0f keeps the sign of negative zero
      return out + 2;
    }
    return std::to_chars(out, out + kJsonNumberRoom,
                         static_cast<std::int64_t>(value))
        .ptr;
  }
  if (magnitude >= 1e-4 && magnitude < 1e15) {
    return format_fixed17(out, value);
  }
  // The standard defines general + precision as printf's %.17g.
  return std::to_chars(out, out + kJsonNumberRoom, value,
                       std::chars_format::general, 17)
      .ptr;
}

void append_json_number(std::string& out, double value) {
  char buf[kJsonNumberRoom];
  out.append(buf, static_cast<std::size_t>(append_json_number(buf, value) -
                                           buf));
}

namespace {

/// The escape of byte `c`, or null for a byte copied verbatim.
const char* json_escape(unsigned char c) {
  switch (c) {
    case '"':
      return "\\\"";
    case '\\':
      return "\\\\";
    case '\n':
      return "\\n";
    case '\r':
      return "\\r";
    case '\t':
      return "\\t";
    case '\b':
      return "\\b";
    case '\f':
      return "\\f";
    default:
      return nullptr;
  }
}

bool needs_escape(unsigned char c) {
  return c < 0x20 || c == '"' || c == '\\';
}

}  // namespace

std::size_t json_string_size(std::string_view value) {
  std::size_t size = value.size() + 2;
  for (const char ch : value) {
    const auto c = static_cast<unsigned char>(ch);
    if (needs_escape(c)) {
      size += json_escape(c) != nullptr ? 1 : 5;
    }
  }
  return size;
}

char* append_json_string(char* out, std::string_view value) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out++ = '"';
  // Copy runs of plain bytes in one go; escape the rest one by one.
  std::size_t run = 0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const auto c = static_cast<unsigned char>(value[i]);
    if (!needs_escape(c)) {
      continue;
    }
    out = std::copy(value.begin() + run, value.begin() + i, out);
    run = i + 1;
    if (const char* escape = json_escape(c)) {
      std::memcpy(out, escape, 2);
      out += 2;
    } else {
      std::memcpy(out, "\\u00", 4);
      out[4] = kHex[c >> 4];
      out[5] = kHex[c & 0xf];
      out += 6;
    }
  }
  out = std::copy(value.begin() + run, value.end(), out);
  *out++ = '"';
  return out;
}

void append_json_string(std::string& out, std::string_view value) {
  const std::size_t at = out.size();
  out.resize(at + json_string_size(value));
  append_json_string(out.data() + at, value);
}

void Json::write(JsonWriter& out) const {
  if (is_null()) {
    out.null();
  } else if (is_bool()) {
    out.boolean(as_bool());
  } else if (is_number()) {
    out.number(as_number());
  } else if (is_string()) {
    out.string(as_string());
  } else if (is_array()) {
    out.begin_array();
    for (const Json& element : as_array()) {
      element.write(out);
    }
    out.end_array();
  } else {
    out.begin_object();
    for (const auto& [key, value] : as_object()) {
      out.key(key);
      value.write(out);
    }
    out.end_object();
  }
}

std::string Json::dump() const {
  JsonWriter out(0);
  write(out);
  return out.take();
}

std::string Json::dump_pretty() const {
  JsonWriter out(2);
  write(out);
  return out.take();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content after JSON document");
    }
    return value;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& why) {
    throw ParseError("JSON parse error at byte " + std::to_string(pos_) +
                     ": " + why);
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (advance() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Json(true);
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          return Json(false);
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) {
          return Json(nullptr);
        }
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = advance();
      if (c == '}') {
        return Json(std::move(obj));
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = advance();
      if (c == ']') {
        return Json(std::move(arr));
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = advance();
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = advance();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // Encode the BMP code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
    }
    const std::string buf(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size()) {
      pos_ = start;
      fail("malformed number '" + buf + "'");
    }
    return Json(value);
  }
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace hetflow::util
