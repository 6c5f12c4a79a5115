#include "util/json_writer.hpp"

#include "util/error.hpp"
#include "util/json.hpp"

namespace hetflow::util {

namespace {

[[noreturn]] void misuse(const std::string& what) {
  throw InternalError("JsonWriter: " + what);
}

}  // namespace

JsonWriter::JsonWriter(int indent) : indent_(indent) {
  if (indent < 0) {
    throw InvalidArgument("JsonWriter: negative indent");
  }
}

void JsonWriter::line_break() {
  if (indent_ > 0) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_) * depth_, ' ');
  }
}

void JsonWriter::before_value() {
  if (depth_ == 0) {
    return;
  }
  Frame& frame = frames_[depth_ - 1];
  if (frame.object) {
    if (!frame.key_pending) {
      misuse("object member written without a key");
    }
    frame.key_pending = false;
    return;
  }
  if (frame.items++ > 0) {
    out_ += ',';
  }
  line_break();
}

void JsonWriter::open(char bracket, bool object) {
  before_value();
  out_ += bracket;
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
    misuse("key '" + frame.last_key + "' has no value");
  }
  const bool empty = frame.items == 0;
  --depth_;
  if (!empty) {
    line_break();
  }
  out_ += bracket;
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
    misuse("key '" + frame.last_key + "' has no value");
  }
  if (frame.items++ > 0) {
    if (name <= frame.last_key) {
      misuse("key '" + std::string(name) + "' does not sort after '" +
             frame.last_key + "'");
    }
    out_ += ',';
  }
  frame.last_key.assign(name);
  frame.key_pending = true;
  line_break();
  append_json_string(out_, name);
  out_ += ':';
  if (indent_ > 0) {
    out_ += ' ';
  }
  return *this;
}

JsonWriter& JsonWriter::number(double value) {
  before_value();
  append_json_number(out_, value);
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  before_value();
  append_json_string(out_, value);
  return *this;
}

JsonWriter& JsonWriter::boolean(bool value) {
  before_value();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::newline() {
  if (depth_ != 0) {
    misuse("newline inside an open container");
  }
  out_ += '\n';
  return *this;
}

std::string JsonWriter::take() {
  if (depth_ != 0) {
    misuse("take() with an open container");
  }
  std::string text = std::move(out_);
  out_.clear();
  return text;
}

}  // namespace hetflow::util
