#include "check/dag.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/strings.hpp"

namespace hetflow::check {

std::vector<Violation> check_workflow(const workflow::Workflow& workflow) {
  std::vector<Violation> out;
  const std::size_t files = workflow.file_count();
  std::vector<std::size_t> producer(files, workflow::Workflow::npos);
  bool indices_ok = true;

  for (std::size_t t = 0; t < workflow.task_count(); ++t) {
    const workflow::WorkflowTask& task = workflow.tasks()[t];
    if (task.kind.empty()) {
      out.push_back({ViolationKind::AccessMode,
                     util::format("task '%s' has an empty codelet kind",
                                  task.name.c_str()),
                     t, Violation::npos, Violation::npos, Violation::npos});
    }
    // Reports an out-of-range or repeated entry of one file list; false
    // when `file` is out of range.
    const auto listed = [&](std::size_t file,
                            std::unordered_set<std::size_t>& seen,
                            const char* verb, const char* role) {
      if (file >= files) {
        out.push_back({ViolationKind::DanglingReference,
                       util::format("task '%s' %s unknown file %zu",
                                    task.name.c_str(), verb, file),
                       t, Violation::npos, file, Violation::npos});
        indices_ok = false;
        return false;
      }
      if (!seen.insert(file).second) {
        out.push_back(
            {ViolationKind::AccessMode,
             util::format("task '%s' lists file '%s' as %s twice",
                          task.name.c_str(),
                          workflow.files()[file].name.c_str(), role),
             t, Violation::npos, file, Violation::npos});
      }
      return true;
    };
    std::unordered_set<std::size_t> inputs;
    for (std::size_t in : task.inputs) {
      listed(in, inputs, "reads", "input");
    }
    std::unordered_set<std::size_t> outputs;
    for (std::size_t o : task.outputs) {
      if (!listed(o, outputs, "writes", "output")) {
        continue;
      }
      if (inputs.count(o) > 0) {
        out.push_back(
            {ViolationKind::AccessMode,
             util::format("task '%s' lists file '%s' as both input and "
                          "output (use a distinct output file)",
                          task.name.c_str(),
                          workflow.files()[o].name.c_str()),
             t, Violation::npos, o, Violation::npos});
      }
      if (producer[o] != workflow::Workflow::npos) {
        out.push_back(
            {ViolationKind::AccessMode,
             util::format("file '%s' has multiple producers ('%s' and '%s')",
                          workflow.files()[o].name.c_str(),
                          workflow.tasks()[producer[o]].name.c_str(),
                          task.name.c_str()),
             producer[o], t, o, Violation::npos});
      } else {
        producer[o] = t;
      }
    }
  }

  // task_graph() requires in-range indices; skip when they are broken.
  if (indices_ok && workflow.task_graph().has_cycle()) {
    out.push_back({ViolationKind::Cycle,
                   "workflow '" + workflow.name() +
                       "' has a dependency cycle",
                   Violation::npos, Violation::npos, Violation::npos,
                   Violation::npos});
  }
  return out;
}

}  // namespace hetflow::check
