#include "obs/chrome_trace.hpp"

#include <map>
#include <unordered_map>

#include "util/json.hpp"

namespace hetflow::obs {

namespace {

util::Json thread_name_meta(std::int64_t tid, const std::string& name) {
  util::Json meta = util::Json::object();
  meta["ph"] = "M";
  meta["name"] = "thread_name";
  meta["pid"] = 1;
  meta["tid"] = tid;
  util::Json args = util::Json::object();
  args["name"] = name;
  meta["args"] = std::move(args);
  return meta;
}

}  // namespace

std::string chrome_trace_json(const trace::Tracer& tracer,
                              const hw::Platform& platform,
                              const Recorder* recorder) {
  util::Json events = util::Json::array();

  // Process + device metadata rows.
  {
    util::Json meta = util::Json::object();
    meta["ph"] = "M";
    meta["name"] = "process_name";
    meta["pid"] = 1;
    util::Json args = util::Json::object();
    args["name"] = "hetflow: " + platform.name();
    meta["args"] = std::move(args);
    events.push_back(std::move(meta));
  }
  for (const hw::Device& device : platform.devices()) {
    events.push_back(thread_name_meta(
        static_cast<std::int64_t>(device.id()), device.name()));
  }
  // Transfer-track metadata, only for node pairs that moved data, in
  // (src, dst) order regardless of event order.
  const std::int64_t nodes =
      static_cast<std::int64_t>(platform.memory_node_count());
  if (recorder != nullptr) {
    std::map<std::int64_t, std::string> transfer_tracks;
    for (const Event& event : recorder->events()) {
      if (event.kind != EventKind::Transfer &&
          event.kind != EventKind::Prefetch) {
        continue;
      }
      if (event.src < 0 || event.dst < 0) {
        continue;
      }
      const std::int64_t tid = kTransferTidBase + event.src * nodes +
                               event.dst;
      transfer_tracks.emplace(
          tid,
          "xfer " +
              platform.memory_node(static_cast<hw::MemoryNodeId>(event.src))
                  .name() +
              " -> " +
              platform.memory_node(static_cast<hw::MemoryNodeId>(event.dst))
                  .name());
    }
    for (const auto& [tid, name] : transfer_tracks) {
      events.push_back(thread_name_meta(tid, name));
    }
  }

  // Execution spans: one "X" event per span on its device track.
  // Remember each task's first successful span for decision flows.
  std::unordered_map<std::uint64_t, const trace::Span*> first_exec;
  for (const trace::Span& span : tracer.spans()) {
    if (span.kind == trace::SpanKind::Exec &&
        first_exec.count(span.task_id) == 0) {
      first_exec.emplace(span.task_id, &span);
    }
    util::Json event = util::Json::object();
    event["ph"] = "X";
    event["name"] = span.name;
    event["pid"] = 1;
    event["tid"] = static_cast<std::int64_t>(span.device);
    event["ts"] = span.start * 1e6;  // microseconds
    event["dur"] = span.duration() * 1e6;
    util::Json args = util::Json::object();
    args["task"] = static_cast<std::int64_t>(span.task_id);
    args["kind"] = trace::to_string(span.kind);
    event["args"] = std::move(args);
    events.push_back(std::move(event));
  }

  // Structured runtime events, in record order.
  if (recorder != nullptr) {
    for (const Event& ev : recorder->events()) {
      util::Json event = util::Json::object();
      event["name"] = to_string(ev.kind);
      event["pid"] = 1;
      event["ts"] = ev.time * 1e6;
      util::Json args = util::Json::object();
      if (ev.task != kNoTask) {
        args["task"] = ev.task;
      }
      if (!ev.name.empty()) {
        args["detail"] = ev.name;
      }
      switch (ev.kind) {
        case EventKind::Transfer: {
          event["ph"] = "X";
          event["tid"] = kTransferTidBase + ev.src * nodes + ev.dst;
          event["dur"] = ev.duration * 1e6;
          args["bytes"] = ev.bytes;
          args["src"] = ev.src;
          args["dst"] = ev.dst;
          break;
        }
        case EventKind::Prefetch: {
          event["ph"] = "i";
          event["s"] = "t";
          event["tid"] = kTransferTidBase + ev.src * nodes + ev.dst;
          args["bytes"] = ev.bytes;
          break;
        }
        case EventKind::Retry:
        case EventKind::Timeout:
          event["ph"] = "i";
          event["s"] = "t";
          event["tid"] = ev.device;
          args["attempt"] = ev.aux;
          break;
        case EventKind::Blacklist:
        case EventKind::Probation:
        case EventKind::Abandon:
        case EventKind::Decision:
          event["ph"] = "i";
          event["s"] = "t";
          event["tid"] = ev.device >= 0 ? ev.device : 0;
          break;
      }
      event["args"] = std::move(args);
      events.push_back(std::move(event));

      // Decision -> execution flow arrow, when the task eventually ran.
      if (ev.kind == EventKind::Decision) {
        const auto it = first_exec.find(ev.task);
        if (it == first_exec.end()) {
          continue;
        }
        util::Json flow_start = util::Json::object();
        flow_start["ph"] = "s";
        flow_start["cat"] = "sched";
        flow_start["name"] = "decision";
        flow_start["id"] = ev.task;
        flow_start["pid"] = 1;
        flow_start["tid"] = ev.device >= 0 ? ev.device : 0;
        flow_start["ts"] = ev.time * 1e6;
        events.push_back(std::move(flow_start));
        util::Json flow_end = util::Json::object();
        flow_end["ph"] = "f";
        flow_end["bp"] = "e";
        flow_end["cat"] = "sched";
        flow_end["name"] = "decision";
        flow_end["id"] = ev.task;
        flow_end["pid"] = 1;
        flow_end["tid"] = static_cast<std::int64_t>(it->second->device);
        flow_end["ts"] = it->second->start * 1e6;
        events.push_back(std::move(flow_end));
      }
    }
  }

  util::Json doc = util::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc.dump();
}

}  // namespace hetflow::obs
