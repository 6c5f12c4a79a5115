#include "obs/chrome_trace.hpp"

#include <map>
#include <unordered_map>

#include "util/json_writer.hpp"

namespace hetflow::obs {

namespace {

// Every event object below writes its keys in sorted order, as
// JsonWriter::key() requires.

void thread_name_meta(util::JsonWriter& out, std::int64_t tid,
                      std::string_view name) {
  out.begin_object();
  out.key("args").begin_object().key("name").string(name).end_object();
  out.key("name").string("thread_name");
  out.key("ph").string("M");
  out.key("pid").number(1);
  out.key("tid").number(static_cast<double>(tid));
  out.end_object();
}

}  // namespace

std::string chrome_trace_json(const trace::Tracer& tracer,
                              const hw::Platform& platform,
                              const Recorder* recorder) {
  util::JsonWriter out(0);
  out.begin_object();
  out.key("displayTimeUnit").string("ms");
  out.key("traceEvents").begin_array();

  // Process + device metadata rows.
  std::string process_name = "hetflow: ";
  process_name += platform.name();
  out.begin_object();
  out.key("args").begin_object().key("name").string(process_name).end_object();
  out.key("name").string("process_name");
  out.key("ph").string("M");
  out.key("pid").number(1);
  out.end_object();
  for (const hw::Device& device : platform.devices()) {
    thread_name_meta(out, static_cast<std::int64_t>(device.id()),
                     device.name());
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
      const auto [it, inserted] = transfer_tracks.try_emplace(
          kTransferTidBase + event.src * nodes + event.dst);
      if (inserted) {
        std::string& name = it->second;
        name = "xfer ";
        name += platform.memory_node(static_cast<hw::MemoryNodeId>(event.src))
                    .name();
        name += " -> ";
        name += platform.memory_node(static_cast<hw::MemoryNodeId>(event.dst))
                    .name();
      }
    }
    for (const auto& [tid, name] : transfer_tracks) {
      thread_name_meta(out, tid, name);
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
    out.begin_object();
    out.key("args").begin_object();
    out.key("kind").string(trace::to_string(span.kind));
    out.key("task").number(static_cast<double>(span.task_id));
    out.end_object();
    out.key("dur").number(span.duration() * 1e6);  // microseconds
    out.key("name").string(span.name);
    out.key("ph").string("X");
    out.key("pid").number(1);
    out.key("tid").number(static_cast<double>(span.device));
    out.key("ts").number(span.start * 1e6);
    out.end_object();
  }

  // Structured runtime events, in record order. Transfers are spans on
  // their (src, dst) track; everything else is a thread-scoped instant.
  if (recorder != nullptr) {
    for (const Event& ev : recorder->events()) {
      const bool transfer = ev.kind == EventKind::Transfer;
      const bool on_transfer_track =
          transfer || ev.kind == EventKind::Prefetch;
      const bool attempt =
          ev.kind == EventKind::Retry || ev.kind == EventKind::Timeout;
      std::int64_t tid = ev.device >= 0 ? ev.device : 0;
      if (on_transfer_track) {
        tid = kTransferTidBase + ev.src * nodes + ev.dst;
      } else if (attempt) {
        tid = ev.device;
      }
      out.begin_object();
      out.key("args").begin_object();
      if (attempt) {
        out.key("attempt").number(static_cast<double>(ev.aux));
      }
      if (on_transfer_track) {
        out.key("bytes").number(static_cast<double>(ev.bytes));
      }
      if (!ev.name.empty()) {
        out.key("detail").string(ev.name);
      }
      if (transfer) {
        out.key("dst").number(static_cast<double>(ev.dst));
        out.key("src").number(static_cast<double>(ev.src));
      }
      if (ev.task != kNoTask) {
        out.key("task").number(static_cast<double>(ev.task));
      }
      out.end_object();
      if (transfer) {
        out.key("dur").number(ev.duration * 1e6);
      }
      out.key("name").string(to_string(ev.kind));
      out.key("ph").string(transfer ? "X" : "i");
      out.key("pid").number(1);
      if (!transfer) {
        out.key("s").string("t");
      }
      out.key("tid").number(static_cast<double>(tid));
      out.key("ts").number(ev.time * 1e6);
      out.end_object();

      // Decision -> execution flow arrow, when the task eventually ran.
      if (ev.kind != EventKind::Decision) {
        continue;
      }
      const auto it = first_exec.find(ev.task);
      if (it == first_exec.end()) {
        continue;
      }
      out.begin_object();
      out.key("cat").string("sched");
      out.key("id").number(static_cast<double>(ev.task));
      out.key("name").string("decision");
      out.key("ph").string("s");
      out.key("pid").number(1);
      out.key("tid").number(static_cast<double>(tid));
      out.key("ts").number(ev.time * 1e6);
      out.end_object();
      out.begin_object();
      out.key("bp").string("e");
      out.key("cat").string("sched");
      out.key("id").number(static_cast<double>(ev.task));
      out.key("name").string("decision");
      out.key("ph").string("f");
      out.key("pid").number(1);
      out.key("tid").number(static_cast<double>(it->second->device));
      out.key("ts").number(it->second->start * 1e6);
      out.end_object();
    }
  }

  out.end_array();
  out.end_object();
  return out.take();
}

}  // namespace hetflow::obs
