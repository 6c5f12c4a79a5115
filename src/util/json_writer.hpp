// Streaming JSON serializer: stores straight into its own std::string
// buffer, with no intermediate document. Each call reserves the most it
// can write in one check and then writes with plain stores. The buffer's
// capacity doubles as under appends, and it is zeroed at most a page
// past the text, so capacity the text never reaches is never touched.
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
    std::size_t items = 0;
    /// The previous key (objects), for the order check: its escaped
    /// text at out_[key_at, key_at + key_size), or, when escaping
    /// changed it, its raw bytes in `copy`.
    std::size_t key_at = 0;
    std::size_t key_size = 0;
    bool key_copied = false;
    std::string copy;
    bool object = false;
    bool key_pending = false;  ///< key() written, its value not yet
  };

  /// out_[0, used_) is the text; out_[used_, out_.size()) is zeroed
  /// room for the next writes.
  std::string out_;
  std::size_t used_ = 0;
  /// frames_[0, depth_) are the open containers; entries past depth_ are
  /// kept so their key copies are reused.
  std::vector<Frame> frames_;
  std::size_t depth_ = 0;
  int indent_ = 0;

  /// At least `bytes` of room at the end of the text.
  char* room(std::size_t bytes) {
    if (out_.size() - used_ < bytes) {
      grow(bytes);
    }
    return out_.data() + used_;
  }
  void grow(std::size_t bytes);
  /// Ends the text at `end`, a pointer into the room.
  void commit(const char* end) {
    used_ = static_cast<std::size_t>(end - out_.data());
  }
  /// Room for a separator and line break, then `bytes` for a value;
  /// returns where the value goes.
  char* value_room(std::size_t bytes);
  /// The most a line break at the current depth writes.
  std::size_t break_room() const {
    return 1 + static_cast<std::size_t>(indent_) * depth_;
  }
  std::string_view previous_key(const Frame& frame) const;

  void open(char bracket, bool object);
  void close(char bracket, bool object);
  char* before_value(char* out);
  char* line_break(char* out) const;
};

}  // namespace hetflow::util
