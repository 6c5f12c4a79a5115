// Minimal JSON document model, serializer and recursive-descent parser.
//
// Used to read artifacts back (audit snapshots, platform and campaign
// files, traces under test) and to build small documents such as
// manifests and checkpoints. Large exports (Chrome trace, decision log,
// metrics snapshot, audit file) stream through util::JsonWriter
// instead; Json serializes through that same writer, so both produce
// the same bytes for the same value. Supports the full JSON grammar
// except \u surrogate pairs beyond the BMP (escapes are decoded to
// UTF-8).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hetflow::util {

class Json;
class JsonWriter;

/// The one JSON number formatter (Json and JsonWriter both call it).
/// Non-finite values print as null; an integral |value| < 1e15 prints as
/// its integer digits ("-0" for -0.0, like printf's %.0f); anything else
/// prints as printf's %.17g, via std::to_chars.
void append_json_number(std::string& out, double value);

/// Room append_json_number(char*) needs at `out`. It may store past the
/// end of the text it leaves (fixed-size copies), never past this.
inline constexpr std::size_t kJsonNumberRoom = 48;

/// append_json_number into raw room; returns the end of the text.
char* append_json_number(char* out, double value);

/// The one JSON string escaper: the quoted value with '"' and '\\'
/// backslash-escaped, \b \f \n \r \t for those control bytes and \u00xx
/// for the other bytes below 0x20; every other byte (0x7f, UTF-8) is
/// copied verbatim.
void append_json_string(std::string& out, std::string_view value);

/// The most bytes append_json_string writes for a `size`-byte value:
/// the quotes plus six (\u00xx) per byte.
constexpr std::size_t json_string_bound(std::size_t size) {
  return 2 + 6 * size;
}

/// The exact number of bytes append_json_string writes for `value`.
std::size_t json_string_size(std::string_view value);

/// append_json_string into raw room (json_string_size(value) bytes
/// suffice); returns the end of the text.
char* append_json_string(char* out, std::string_view value);

using JsonArray = std::vector<Json>;
/// std::map keeps key order deterministic for golden-output tests.
using JsonObject = std::map<std::string, Json>;

/// One JSON value. Value-semantic; cheap to move.
///
/// The single-argument constructors are implicit BY DESIGN: JSON literals
/// like `doc["seed"] = 42` and `row.push_back("name")` are the whole API.
// hetflow-lint: allow-file(hyg-explicit-ctor)
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool is_array() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw InternalError on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object field access; `at` throws ParseError if missing.
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Array append.
  void push_back(Json value);

  std::size_t size() const;

  /// Compact serialization (no whitespace).
  std::string dump() const;
  /// Pretty serialization with 2-space indentation.
  std::string dump_pretty() const;

  /// Parses a complete JSON document; throws ParseError with a byte
  /// offset on malformed input.
  static Json parse(std::string_view text);

  bool operator==(const Json& other) const = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;

  void write(JsonWriter& out) const;
};

}  // namespace hetflow::util
