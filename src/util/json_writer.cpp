#include "util/json_writer.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/json.hpp"

namespace hetflow::util {

namespace {

/// Zeroed room grow() adds past what the current write needs, up to the
/// capacity: one page, so zeroing stays just ahead of the writes and
/// capacity the text never reaches is never touched. The capacity
/// doubles as it would under appends.
constexpr std::size_t kGrowSlack = 4096;

/// Strings up to this size reserve the escaper's worst case; longer ones
/// (the audit's per-replica state string) are measured first, so the
/// room zeroed for them stays their size, not six times it.
constexpr std::size_t kShortString = 256;

std::size_t string_room(std::string_view value) {
  return value.size() <= kShortString ? json_string_bound(value.size())
                                      : json_string_size(value);
}

[[noreturn]] void misuse(const std::string& what) {
  throw InternalError("JsonWriter: " + what);
}

}  // namespace

JsonWriter::JsonWriter(int indent) : indent_(indent) {
  if (indent < 0) {
    throw InvalidArgument("JsonWriter: negative indent");
  }
}

void JsonWriter::grow(std::size_t bytes) {
  const std::size_t needed = used_ + bytes;
  if (needed > out_.capacity()) {
    std::size_t capacity = out_.capacity();
    while (capacity < needed) {
      capacity *= 2;
    }
    out_.reserve(capacity);
  }
  out_.resize(std::min(out_.capacity(), needed + kGrowSlack));
}

std::string_view JsonWriter::previous_key(const Frame& frame) const {
  if (frame.key_copied) {
    return frame.copy;
  }
  return {out_.data() + frame.key_at, frame.key_size};
}

char* JsonWriter::line_break(char* out) const {
  if (indent_ > 0) {
    *out++ = '\n';
    const std::size_t spaces = static_cast<std::size_t>(indent_) * depth_;
    std::memset(out, ' ', spaces);
    out += spaces;
  }
  return out;
}

char* JsonWriter::before_value(char* out) {
  if (depth_ == 0) {
    return out;
  }
  Frame& frame = frames_[depth_ - 1];
  if (frame.object) {
    if (!frame.key_pending) {
      misuse("object member written without a key");
    }
    frame.key_pending = false;
    return out;
  }
  if (frame.items++ > 0) {
    *out++ = ',';
  }
  return line_break(out);
}

char* JsonWriter::value_room(std::size_t bytes) {
  return before_value(room(1 + break_room() + bytes));
}

void JsonWriter::open(char bracket, bool object) {
  char* out = value_room(1);
  *out++ = bracket;
  commit(out);
  if (depth_ == frames_.size()) {
    frames_.emplace_back();
  }
  Frame& frame = frames_[depth_++];
  frame.items = 0;
  frame.object = object;
  frame.key_pending = false;
}

void JsonWriter::close(char bracket, bool object) {
  if (depth_ == 0 || frames_[depth_ - 1].object != object) {
    misuse(std::string("unmatched '") + bracket + "'");
  }
  const Frame& frame = frames_[depth_ - 1];
  if (frame.key_pending) {
    misuse("key '" + std::string(previous_key(frame)) + "' has no value");
  }
  const bool empty = frame.items == 0;
  --depth_;
  char* out = room(break_room() + 1);
  if (!empty) {
    out = line_break(out);
  }
  *out++ = bracket;
  commit(out);
}

JsonWriter& JsonWriter::begin_object() {
  open('{', true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close('}', true);
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open('[', false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(']', false);
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (depth_ == 0 || !frames_[depth_ - 1].object) {
    misuse("key '" + std::string(name) + "' outside an object");
  }
  Frame& frame = frames_[depth_ - 1];
  if (frame.key_pending) {
    misuse("key '" + std::string(previous_key(frame)) + "' has no value");
  }
  // ',' + line break + the key + ": ".
  char* out = room(1 + break_room() + string_room(name) + 2);
  if (frame.items++ > 0) {
    if (name <= previous_key(frame)) {
      misuse("key '" + std::string(name) + "' does not sort after '" +
             std::string(previous_key(frame)) + "'");
    }
    *out++ = ',';
  }
  frame.key_pending = true;
  out = line_break(out);
  const char* text = out + 1;  // past the opening quote
  out = append_json_string(out, name);
  frame.key_at = static_cast<std::size_t>(text - out_.data());
  frame.key_size = static_cast<std::size_t>(out - 1 - text);
  frame.key_copied = frame.key_size != name.size();
  if (frame.key_copied) {
    frame.copy.assign(name);
  }
  *out++ = ':';
  if (indent_ > 0) {
    *out++ = ' ';
  }
  commit(out);
  return *this;
}

JsonWriter& JsonWriter::number(double value) {
  commit(append_json_number(value_room(kJsonNumberRoom), value));
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  commit(append_json_string(value_room(string_room(value)), value));
  return *this;
}

JsonWriter& JsonWriter::boolean(bool value) {
  char* out = value_room(5);
  const std::string_view text = value ? "true" : "false";
  std::memcpy(out, text.data(), text.size());
  commit(out + text.size());
  return *this;
}

JsonWriter& JsonWriter::null() {
  char* out = value_room(4);
  std::memcpy(out, "null", 4);
  commit(out + 4);
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  commit(std::copy(json.begin(), json.end(), value_room(json.size())));
  return *this;
}

JsonWriter& JsonWriter::newline() {
  if (depth_ != 0) {
    misuse("newline inside an open container");
  }
  char* out = room(1);
  *out++ = '\n';
  commit(out);
  return *this;
}

std::string JsonWriter::take() {
  if (depth_ != 0) {
    misuse("take() with an open container");
  }
  out_.resize(used_);
  std::string text = std::move(out_);
  out_.clear();
  used_ = 0;
  return text;
}

}  // namespace hetflow::util
