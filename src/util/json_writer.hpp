// Streaming JSON serializer: appends straight to a std::string, with no
// intermediate document.
//
// The output is byte-identical to Json::dump() (indent 0) or
// Json::dump_pretty() (indent 2) of the same value, because Json itself
// serializes through this class and every number and string goes
// through util/json's shared append_json_number / append_json_string.
// The one thing a caller must supply is key order: a Json object is a
// std::map, so key() requires each key to sort strictly after the
// previous key of the same object and throws InternalError otherwise —
// an out-of-order or repeated key fails loudly instead of producing a
// document that no longer round-trips through Json::parse + dump.
//
//   JsonWriter w(0);
//   w.begin_object();
//   w.key("name").string("gpu0");
//   w.key("tid").number(3);
//   w.end_object();
//   std::string text = w.take();  // {"name":"gpu0","tid":3}
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hetflow::util {

class JsonWriter {
 public:
  /// `indent` 0 writes compact JSON; 2 writes Json::dump_pretty()'s
  /// layout (newline + indent per element, "key": value).
  explicit JsonWriter(int indent);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Next member name of the innermost object; the value call follows.
  JsonWriter& key(std::string_view name);

  JsonWriter& number(double value);
  JsonWriter& string(std::string_view value);
  JsonWriter& boolean(bool value);
  JsonWriter& null();
  /// Writes `json`, one already-serialized value (for example a string
  /// escaped once with append_json_string and reused), verbatim.
  JsonWriter& raw(std::string_view json);

  /// Ends a top-level value with '\n' (JSONL records, text files).
  JsonWriter& newline();

  /// Moves the text out; every container must be closed.
  std::string take();

 private:
  struct Frame {
    std::string last_key;  ///< previous key (objects), for the order check
    std::size_t items = 0;
    bool object = false;
    bool key_pending = false;  ///< key() written, its value not yet
  };

  std::string out_;
  /// frames_[0, depth_) are the open containers; entries past depth_ are
  /// kept so their key buffers are reused.
  std::vector<Frame> frames_;
  std::size_t depth_ = 0;
  int indent_ = 0;

  void open(char bracket, bool object);
  void close(char bracket, bool object);
  void before_value();
  void line_break();
};

}  // namespace hetflow::util
