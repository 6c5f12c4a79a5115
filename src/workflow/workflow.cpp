#include "workflow/workflow.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "sched/registry.hpp"
#include "util/strings.hpp"

namespace hetflow::workflow {

std::size_t Workflow::add_file(std::string name, std::uint64_t bytes) {
  files_.push_back(WorkflowFile{std::move(name), bytes});
  return files_.size() - 1;
}

std::size_t Workflow::add_task(std::string name, std::string kind,
                               double flops, std::vector<std::size_t> inputs,
                               std::vector<std::size_t> outputs) {
  HETFLOW_REQUIRE_MSG(flops >= 0.0, "task flops cannot be negative");
  tasks_.push_back(WorkflowTask{std::move(name), std::move(kind), flops,
                                std::move(inputs), std::move(outputs)});
  return tasks_.size() - 1;
}

double Workflow::total_flops() const noexcept {
  double total = 0.0;
  for (const WorkflowTask& task : tasks_) {
    total += task.flops;
  }
  return total;
}

std::uint64_t Workflow::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const WorkflowFile& file : files_) {
    total += file.bytes;
  }
  return total;
}

std::size_t Workflow::producer_of(std::size_t file) const {
  HETFLOW_REQUIRE_MSG(file < files_.size(), "file index out of range");
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (std::size_t out : tasks_[t].outputs) {
      if (out == file) {
        return t;
      }
    }
  }
  return npos;
}

util::Digraph Workflow::task_graph() const {
  util::Digraph graph(tasks_.size());
  // producer[file] -> consumer edges.
  std::vector<std::size_t> producer(files_.size(), npos);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (std::size_t out : tasks_[t].outputs) {
      HETFLOW_REQUIRE_MSG(out < files_.size(), "file index out of range");
      producer[out] = t;
    }
  }
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (std::size_t in : tasks_[t].inputs) {
      HETFLOW_REQUIRE_MSG(in < files_.size(), "file index out of range");
      const std::size_t p = producer[in];
      if (p != npos && p != t) {
        graph.add_edge(p, t);
      }
    }
  }
  return graph;
}

Workflow::Order Workflow::checked_order() const {
  const std::size_t n = tasks_.size();
  Order result;
  result.producer.assign(files_.size(), npos);
  for (std::size_t t = 0; t < n; ++t) {
    const WorkflowTask& task = tasks_[t];
    for (std::size_t in : task.inputs) {
      if (in >= files_.size()) {
        throw InvalidArgument(util::format(
            "workflow '%s': task '%s' reads unknown file %zu", name_.c_str(),
            task.name.c_str(), in));
      }
    }
    for (std::size_t out : task.outputs) {
      if (out >= files_.size()) {
        throw InvalidArgument(util::format(
            "workflow '%s': task '%s' writes unknown file %zu", name_.c_str(),
            task.name.c_str(), out));
      }
      if (result.producer[out] != npos) {
        throw InvalidArgument(util::format(
            "workflow '%s': file '%s' has multiple producers", name_.c_str(),
            files_[out].name.c_str()));
      }
      result.producer[out] = t;
    }
  }
  // Successor lists in compressed rows: one edge per (input, producer)
  // pair, duplicates kept, so in-degrees match task_graph()'s.
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<std::size_t> in_degree(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t in : tasks_[t].inputs) {
      const std::size_t p = result.producer[in];
      if (p != npos && p != t) {
        ++first[p + 1];
        ++in_degree[t];
      }
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    first[t + 1] += first[t];
  }
  std::vector<std::size_t> successors(first[n]);
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t in : tasks_[t].inputs) {
      const std::size_t p = result.producer[in];
      if (p != npos && p != t) {
        successors[fill[p]++] = t;
      }
    }
  }
  // Kahn's algorithm over a min-heap, as Digraph::topological_order.
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      ready;
  for (std::size_t t = 0; t < n; ++t) {
    if (in_degree[t] == 0) {
      ready.push(t);
    }
  }
  result.tasks.reserve(n);
  while (!ready.empty()) {
    const std::size_t t = ready.top();
    ready.pop();
    result.tasks.push_back(t);
    for (std::size_t e = first[t]; e < first[t + 1]; ++e) {
      if (--in_degree[successors[e]] == 0) {
        ready.push(successors[e]);
      }
    }
  }
  if (result.tasks.size() != n) {
    throw InvalidArgument("workflow '" + name_ + "' has a dependency cycle");
  }
  return result;
}

void Workflow::validate() const { checked_order(); }

std::size_t Workflow::depth() const {
  if (tasks_.empty()) {
    return 0;
  }
  const std::vector<std::size_t> levels = task_graph().levels();
  return 1 + *std::max_element(levels.begin(), levels.end());
}

std::size_t Workflow::max_width() const {
  if (tasks_.empty()) {
    return 0;
  }
  const std::vector<std::size_t> levels = task_graph().levels();
  std::vector<std::size_t> count(depth(), 0);
  for (std::size_t level : levels) {
    ++count[level];
  }
  return *std::max_element(count.begin(), count.end());
}

std::string Workflow::describe() const {
  return util::format("%s: %zu tasks, %zu files, depth %zu, width %zu, "
                      "%.3g GFLOP, %s",
                      name_.c_str(), tasks_.size(), files_.size(), depth(),
                      max_width(), total_flops() / 1e9,
                      util::human_bytes(static_cast<double>(total_bytes()))
                          .c_str());
}

namespace {

std::vector<core::TaskId> submit_with_homes(
    core::Runtime& runtime, const Workflow& workflow,
    const CodeletLibrary& library, const std::vector<hw::MemoryNodeId>& homes) {
  const Workflow::Order order = workflow.checked_order();
  // Stripe the workflow's true inputs (files no task produces) evenly
  // across the homes on their own counter: interleaving produced files
  // into the same stripe would bunch the staged inputs onto a subset of
  // the homes (e.g. two files per tile -> inputs on even gateways only),
  // which skews any placement policy that chases input residency.
  // Produced files stripe on a second counter purely to spread staging
  // capacity — their values materialize wherever their producer runs.
  std::vector<data::DataId> file_ids;
  file_ids.reserve(workflow.file_count());
  std::size_t next_input_home = 0;
  std::size_t next_output_home = 0;
  std::size_t file_index = 0;
  for (const WorkflowFile& file : workflow.files()) {
    std::size_t& counter = order.producer[file_index] != Workflow::npos
                               ? next_output_home
                               : next_input_home;
    const hw::MemoryNodeId home = homes[counter % homes.size()];
    ++counter;
    ++file_index;
    file_ids.push_back(runtime.register_data(file.name, file.bytes, home));
  }
  // Submission must follow a topological order so dependency inference
  // (which is order-sensitive) sees producers before consumers.
  std::vector<core::TaskId> task_ids(workflow.task_count());
  for (std::size_t index : order.tasks) {
    const WorkflowTask& task = workflow.tasks()[index];
    std::vector<data::Access> accesses;
    accesses.reserve(task.inputs.size() + task.outputs.size());
    for (std::size_t in : task.inputs) {
      accesses.push_back({file_ids[in], data::AccessMode::Read});
    }
    for (std::size_t out : task.outputs) {
      accesses.push_back({file_ids[out], data::AccessMode::Write});
    }
    task_ids[index] = runtime.submit(task.name, library.get(task.kind),
                                     task.flops, std::move(accesses));
  }
  return task_ids;
}

}  // namespace

std::vector<core::TaskId> submit_workflow(core::Runtime& runtime,
                                          const Workflow& workflow,
                                          const CodeletLibrary& library,
                                          hw::MemoryNodeId home) {
  return submit_with_homes(runtime, workflow, library, {home});
}

std::vector<core::TaskId> submit_workflow_scattered(
    core::Runtime& runtime, const Workflow& workflow,
    const CodeletLibrary& library,
    const std::vector<hw::MemoryNodeId>& homes) {
  HETFLOW_REQUIRE_MSG(!homes.empty(),
                      "submit_workflow_scattered needs at least one home");
  return submit_with_homes(runtime, workflow, library, homes);
}

core::RunStats run_workflow(const hw::Platform& platform,
                            const std::string& scheduler_name,
                            const Workflow& workflow,
                            const CodeletLibrary& library,
                            const core::RuntimeOptions& options) {
  core::Runtime runtime(platform, sched::make_scheduler(scheduler_name),
                        options);
  submit_workflow(runtime, workflow, library);
  runtime.wait_all();
  return runtime.stats();
}

}  // namespace hetflow::workflow
