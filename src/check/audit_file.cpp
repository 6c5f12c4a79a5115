#include "check/audit_file.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/strings.hpp"

namespace hetflow::check {

namespace {

const char* mode_tag(data::AccessMode mode) {
  return data::to_string(mode);  // "R" / "W" / "RW" / "RED"
}

data::AccessMode parse_mode(const std::string& tag) {
  if (tag == "R") {
    return data::AccessMode::Read;
  }
  if (tag == "W") {
    return data::AccessMode::Write;
  }
  if (tag == "RW") {
    return data::AccessMode::ReadWrite;
  }
  if (tag == "RED") {
    return data::AccessMode::Redux;
  }
  throw ParseError("unknown access mode '" + tag + "'");
}

trace::SpanKind parse_kind(const std::string& tag) {
  if (const auto kind = trace::parse_span_kind(tag)) {
    return *kind;
  }
  throw ParseError("unknown span kind '" + tag + "'");
}

char state_tag(data::ReplicaState state) {
  return data::to_string(state)[0];  // 'I' / 'S' / 'M'
}

data::ReplicaState parse_state(char tag) {
  switch (tag) {
    case 'I':
      return data::ReplicaState::Invalid;
    case 'S':
      return data::ReplicaState::Shared;
    case 'M':
      return data::ReplicaState::Modified;
    default:
      throw ParseError(std::string("unknown replica state '") + tag + "'");
  }
}

template <typename T>
void number_array(util::JsonWriter& out, const std::vector<T>& values) {
  out.begin_array();
  for (const T& value : values) {
    out.number(static_cast<double>(value));
  }
  out.end_array();
}

/// The one reader of an integer field: `json` must be a number that is
/// integral, non-negative and representable in T (casting any other
/// double to T is wrong or undefined). Throws ParseError naming `field`.
template <typename T>
T parse_integer(const util::Json& json, const char* field) {
  if (!json.is_number()) {
    throw ParseError(util::format("audit field '%s' is not a number", field));
  }
  const double value = json.as_number();
  // 2^digits is exact as a double and one past T's largest value.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(value >= 0 && value < limit) || value != std::floor(value)) {
    throw ParseError(util::format(
        "audit field '%s' holds %.17g, not an integer in [0, 2^%d)", field,
        value, std::numeric_limits<T>::digits));
  }
  return static_cast<T>(value);
}

template <typename T>
std::vector<T> parse_number_array(const util::Json& json, const char* field) {
  if (!json.is_array()) {
    throw ParseError(util::format("audit field '%s' is not an array", field));
  }
  std::vector<T> out;
  out.reserve(json.as_array().size());
  for (const util::Json& value : json.as_array()) {
    out.push_back(parse_integer<T>(value, field));
  }
  return out;
}

/// Throws ParseError unless `array` has `expected` entries (`why`
/// names where that count comes from).
void require_entries(std::size_t entries, std::size_t expected,
                     const char* array, const char* why) {
  if (entries != expected) {
    throw ParseError(
        util::format("audit field '%s' has %zu entries, expected %zu (%s)",
                     array, entries, expected, why));
  }
}

}  // namespace

std::string to_audit_json(const AuditRecord& record) {
  // Keys in sorted order, as JsonWriter::key() requires.
  util::JsonWriter out(2);
  out.begin_object();

  const DirectoryRecord& directory = record.directory;
  out.key("directory").begin_object();
  out.key("capacity_bytes");
  number_array(out, directory.capacity_bytes);
  out.key("claimed_resident_bytes");
  number_array(out, directory.claimed_resident_bytes);
  out.key("handle_bytes");
  number_array(out, directory.handle_bytes);
  out.key("node_count").number(static_cast<double>(directory.node_count));
  std::string states;
  states.reserve(directory.states.size());
  for (data::ReplicaState state : directory.states) {
    states.push_back(state_tag(state));
  }
  out.key("states").string(states);
  out.end_object();

  out.key("format").string("hetflow-audit");

  const RunRecord& run = record.run;
  out.key("run").begin_object();
  out.key("device_count").number(static_cast<double>(run.device_count));
  out.key("device_memory_node");
  number_array(out, run.device_memory_node);
  out.key("handle_bytes");
  number_array(out, run.handle_bytes);
  out.key("handle_home");
  number_array(out, run.handle_home);
  out.key("node_count").number(static_cast<double>(run.node_count));
  out.key("spans").begin_array();
  for (const trace::Span& span : run.spans) {
    out.begin_object();
    out.key("device").number(static_cast<double>(span.device));
    out.key("end").number(span.end);
    out.key("kind").string(trace::to_string(span.kind));
    out.key("name").string(span.name);
    out.key("start").number(span.start);
    out.key("task").number(static_cast<double>(span.task_id));
    out.end_object();
  }
  out.end_array();
  out.key("tasks").begin_array();
  for (const TaskRecord& task : run.tasks) {
    out.begin_object();
    out.key("accesses").begin_array();
    for (const data::Access& access : task.accesses) {
      out.begin_object();
      out.key("data").number(static_cast<double>(access.data));
      out.key("mode").string(mode_tag(access.mode));
      out.end_object();
    }
    out.end_array();
    out.key("completed").boolean(task.completed);
    out.key("deps");
    number_array(out, task.dependencies);
    out.key("device").number(static_cast<double>(task.device));
    out.key("end").number(task.end);
    out.key("id").number(static_cast<double>(task.id));
    out.key("name").string(task.name);
    out.key("start").number(task.start);
    out.end_object();
  }
  out.end_array();
  out.end_object();

  out.key("version").number(1);
  out.end_object();
  return out.take();
}

AuditRecord parse_audit_json(const std::string& text) {
  const util::Json doc = util::Json::parse(text);
  if (!doc.is_object() || !doc.contains("format") ||
      doc.at("format").as_string() != "hetflow-audit") {
    throw ParseError("not a hetflow audit file (missing format marker)");
  }
  if (doc.at("version").as_number() != 1) {
    throw ParseError("unsupported audit file version");
  }
  AuditRecord record;
  const util::Json& run = doc.at("run");
  record.run.device_count =
      parse_integer<std::size_t>(run.at("device_count"), "run.device_count");
  record.run.node_count =
      parse_integer<std::size_t>(run.at("node_count"), "run.node_count");
  record.run.device_memory_node = parse_number_array<std::uint32_t>(
      run.at("device_memory_node"), "run.device_memory_node");
  require_entries(record.run.device_memory_node.size(),
                  record.run.device_count, "run.device_memory_node",
                  "run.device_count");
  record.run.handle_bytes = parse_number_array<std::uint64_t>(
      run.at("handle_bytes"), "run.handle_bytes");
  record.run.handle_home = parse_number_array<std::uint32_t>(
      run.at("handle_home"), "run.handle_home");
  require_entries(record.run.handle_home.size(), record.run.handle_count(),
                  "run.handle_home", "one per run.handle_bytes entry");
  for (const util::Json& entry : run.at("tasks").as_array()) {
    TaskRecord task;
    task.id = parse_integer<std::uint64_t>(entry.at("id"), "run.tasks.id");
    task.name = entry.at("name").as_string();
    task.device =
        parse_integer<std::uint32_t>(entry.at("device"), "run.tasks.device");
    task.start = entry.at("start").as_number();
    task.end = entry.at("end").as_number();
    task.completed = entry.at("completed").as_bool();
    for (const util::Json& one : entry.at("accesses").as_array()) {
      task.accesses.push_back(
          {parse_integer<data::DataId>(one.at("data"),
                                       "run.tasks.accesses.data"),
           parse_mode(one.at("mode").as_string())});
    }
    task.dependencies =
        parse_number_array<std::uint64_t>(entry.at("deps"), "run.tasks.deps");
    record.run.tasks.push_back(std::move(task));
  }
  record.run.names = std::make_shared<util::StringInterner>();
  for (const util::Json& entry : run.at("spans").as_array()) {
    trace::Span span;
    span.task_id =
        parse_integer<std::uint64_t>(entry.at("task"), "run.spans.task");
    span.name = record.run.names->intern_view(entry.at("name").as_string());
    span.device =
        parse_integer<hw::DeviceId>(entry.at("device"), "run.spans.device");
    span.start = entry.at("start").as_number();
    span.end = entry.at("end").as_number();
    span.kind = parse_kind(entry.at("kind").as_string());
    record.run.spans.push_back(std::move(span));
  }

  const util::Json& directory = doc.at("directory");
  record.directory.node_count = parse_integer<std::size_t>(
      directory.at("node_count"), "directory.node_count");
  record.directory.handle_bytes = parse_number_array<std::uint64_t>(
      directory.at("handle_bytes"), "directory.handle_bytes");
  require_entries(record.directory.handle_count(), record.run.handle_count(),
                  "directory.handle_bytes", "one per run.handle_bytes entry");
  record.directory.capacity_bytes = parse_number_array<std::uint64_t>(
      directory.at("capacity_bytes"), "directory.capacity_bytes");
  require_entries(record.directory.capacity_bytes.size(),
                  record.directory.node_count, "directory.capacity_bytes",
                  "directory.node_count");
  record.directory.claimed_resident_bytes = parse_number_array<std::uint64_t>(
      directory.at("claimed_resident_bytes"),
      "directory.claimed_resident_bytes");
  require_entries(record.directory.claimed_resident_bytes.size(),
                  record.directory.node_count,
                  "directory.claimed_resident_bytes", "directory.node_count");
  const std::string& states = directory.at("states").as_string();
  const std::size_t expected =
      record.directory.handle_count() * record.directory.node_count;
  if (states.size() != expected) {
    throw ParseError(util::format(
        "directory state string has %zu entries, expected %zu (handles x "
        "nodes)",
        states.size(), expected));
  }
  record.directory.states.reserve(states.size());
  for (char tag : states) {
    record.directory.states.push_back(parse_state(tag));
  }
  return record;
}

void save_audit(const AuditRecord& record, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw Error("cannot open '" + path + "' for writing");
  }
  out << to_audit_json(record);
  if (!out) {
    throw Error("failed writing '" + path + "'");
  }
}

AuditRecord load_audit(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_audit_json(buffer.str());
}

}  // namespace hetflow::check
