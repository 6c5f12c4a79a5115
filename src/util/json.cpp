#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

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

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; serialize as null (standard-compatible).
    out += "null";
    return;
  }
  char buf[32];
  std::to_chars_result result{};
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    if (value == 0.0 && std::signbit(value)) {
      out += "-0";  // %.0f keeps the sign of negative zero
      return;
    }
    result = std::to_chars(buf, buf + sizeof buf,
                           static_cast<std::int64_t>(value));
  } else {
    // The standard defines general + precision as printf's %.17g.
    result = std::to_chars(buf, buf + sizeof buf, value,
                           std::chars_format::general, 17);
  }
  out.append(buf, result.ptr);
}

void append_json_string(std::string& out, std::string_view value) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  // Copy runs of plain bytes in one append; escape the rest one by one.
  std::size_t run = 0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const auto c = static_cast<unsigned char>(value[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(value.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(value.data() + run, value.size() - run);
  out += '"';
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
