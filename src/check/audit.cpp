#include "check/audit.hpp"

#include <algorithm>
#include <set>

#include "util/strings.hpp"

namespace hetflow::check {

RunRecord snapshot_run(const core::Runtime& runtime) {
  const hw::Platform& platform = runtime.platform();
  RunRecord run;
  run.device_count = platform.device_count();
  run.node_count = platform.memory_node_count();
  run.device_memory_node.reserve(run.device_count);
  for (const hw::Device& device : platform.devices()) {
    run.device_memory_node.push_back(device.memory_node());
  }
  const data::DataRegistry& registry = runtime.data().registry();
  run.handle_bytes.reserve(registry.count());
  run.handle_home.reserve(registry.count());
  for (const data::DataHandle& handle : registry.handles()) {
    run.handle_bytes.push_back(handle.bytes);
    run.handle_home.push_back(handle.home_node);
  }
  run.tasks.reserve(runtime.task_count());
  for (core::TaskId id = 0; id < runtime.task_count(); ++id) {
    const core::Task& task = runtime.task(id);
    TaskRecord record;
    record.id = task.id();
    record.name = task.name();
    const auto accesses = task.accesses();
    record.accesses.assign(accesses.begin(), accesses.end());
    record.dependencies.assign(task.dependencies.begin(),
                               task.dependencies.end());
    record.completed = task.state() == core::TaskState::Completed;
    if (record.completed) {
      record.device = task.device();
      record.start = task.times().started;
      record.end = task.times().completed;
    }
    run.tasks.push_back(std::move(record));
  }
  run.spans = runtime.tracer().spans();
  return run;
}

AuditRecord snapshot_audit(const core::Runtime& runtime) {
  AuditRecord record;
  record.run = snapshot_run(runtime);
  record.directory =
      snapshot_directory(runtime.platform(), runtime.data().registry(),
                         runtime.data().directory());
  return record;
}

CheckReport audit(const AuditRecord& record) {
  CheckReport report;
  std::size_t pairs = 0;
  report.merge(check_races(record.run, &pairs));
  report.note_check("conflicting access pairs", pairs);
  report.merge(check_trace(record.run));
  report.note_check("trace spans", record.run.spans.size());
  report.merge(check_directory(record.directory));
  report.note_check("directory replicas", record.directory.states.size());
  return report;
}

CheckReport audit_run(const core::Runtime& runtime) {
  CheckReport report = audit(snapshot_audit(runtime));
  if (!runtime.event_queue().empty()) {
    report.add({ViolationKind::EventResidue,
                util::format("event queue still holds %zu event(s) after the "
                             "run drained",
                             runtime.event_queue().pending()),
                Violation::npos, Violation::npos, Violation::npos,
                Violation::npos});
  }
  return report;
}

std::vector<Violation> check_accesses(
    std::span<const data::Access> accesses, std::string_view task_name) {
  // Short lists, the common case, are scanned without allocating; a
  // longer one keeps an ordered set, O(k log k).
  constexpr std::size_t kScanned = 16;
  std::vector<Violation> out;
  std::set<data::DataId> seen;
  for (auto it = accesses.begin(); it != accesses.end(); ++it) {
    const auto same = [it](const data::Access& a) {
      return a.data == it->data;
    };
    const bool repeat = accesses.size() <= kScanned
                            ? std::any_of(accesses.begin(), it, same)
                            : !seen.insert(it->data).second;
    if (repeat) {
      out.push_back(
          {ViolationKind::AccessMode,
           util::format("task '%s' lists handle %u more than once in its "
                        "access list",
                        std::string(task_name).c_str(), it->data),
           Violation::npos, Violation::npos, it->data, Violation::npos});
    }
  }
  return out;
}

void enforce(const CheckReport& report) {
  if (!report.passed()) {
    throw ValidationError(report);
  }
}

}  // namespace hetflow::check
