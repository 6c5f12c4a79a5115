// Abstract scientific workflow: tasks exchanging files (Pegasus/DAX-like
// model). A Workflow is platform-independent; submit_workflow() lowers it
// onto a Runtime by registering each file as a data handle and each task
// as a codelet instance reading its inputs and writing its outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "util/graph.hpp"
#include "workflow/codelets.hpp"

namespace hetflow::workflow {

struct WorkflowFile {
  std::string name;
  std::uint64_t bytes = 0;
};

struct WorkflowTask {
  std::string name;
  std::string kind;     ///< codelet key in the CodeletLibrary
  double flops = 0.0;
  std::vector<std::size_t> inputs;   ///< file indices read
  std::vector<std::size_t> outputs;  ///< file indices written (1 producer/file)
};

class Workflow {
 public:
  explicit Workflow(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  std::size_t add_file(std::string name, std::uint64_t bytes);
  std::size_t add_task(std::string name, std::string kind, double flops,
                       std::vector<std::size_t> inputs,
                       std::vector<std::size_t> outputs);

  const std::vector<WorkflowFile>& files() const noexcept { return files_; }
  const std::vector<WorkflowTask>& tasks() const noexcept { return tasks_; }
  std::size_t file_count() const noexcept { return files_.size(); }
  std::size_t task_count() const noexcept { return tasks_.size(); }

  double total_flops() const noexcept;
  std::uint64_t total_bytes() const noexcept;

  /// Producer task index of a file, or npos when it is a workflow input.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t producer_of(std::size_t file) const;

  /// Task-level dependency graph (producer -> consumer).
  util::Digraph task_graph() const;

  /// What submission needs, from one pass over the tasks.
  struct Order {
    /// Topological order of the task indices, smallest ready index first
    /// (the order of task_graph().topological_order()).
    std::vector<std::size_t> tasks;
    /// Per file: index of the task writing it, or npos for an input.
    std::vector<std::size_t> producer;
  };
  /// Checks the structural invariants as validate() does (same errors)
  /// and returns the submission order, without building a Digraph.
  Order checked_order() const;

  /// Checks structural invariants: file/task indices in range, at most
  /// one producer per file, acyclic task graph. Throws InvalidArgument.
  void validate() const;

  /// Number of levels of the task graph (1 for a flat bag of tasks).
  std::size_t depth() const;
  /// Maximum number of tasks on one level.
  std::size_t max_width() const;

  /// One-line shape summary ("montage: 143 tasks, 127 files, depth 7").
  std::string describe() const;

 private:
  std::string name_;
  std::vector<WorkflowFile> files_;
  std::vector<WorkflowTask> tasks_;
};

/// Lowers `workflow` onto `runtime`: registers every file (home node
/// `home`) and submits every task via the codelet library. Returns the
/// runtime TaskId of each workflow task, index-aligned with
/// workflow.tasks().
std::vector<core::TaskId> submit_workflow(core::Runtime& runtime,
                                          const Workflow& workflow,
                                          const CodeletLibrary& library,
                                          hw::MemoryNodeId home = 0);

/// Cluster-aware lowering: scatters the staged input files round-robin
/// (by file index — deterministic) across `homes` instead of piling
/// every file onto one memory node, so a multi-node run starts with its
/// inputs distributed the way a parallel filesystem stages them. Pass
/// the cluster's gateway memory nodes. Requires a non-empty list.
std::vector<core::TaskId> submit_workflow_scattered(
    core::Runtime& runtime, const Workflow& workflow,
    const CodeletLibrary& library, const std::vector<hw::MemoryNodeId>& homes);

/// Convenience: build a runtime over `platform` with scheduler `name`,
/// run `workflow` to completion, and return the stats. Used everywhere in
/// benches.
core::RunStats run_workflow(const hw::Platform& platform,
                            const std::string& scheduler_name,
                            const Workflow& workflow,
                            const CodeletLibrary& library,
                            const core::RuntimeOptions& options = {});

}  // namespace hetflow::workflow
