// hetflow-verify: plain-data snapshots of a finished run.
//
// Checkers operate on these records rather than on live runtime objects
// so (a) tests can fabricate known-bad inputs without driving the engine
// into an impossible state, and (b) a run exported to disk (hetflow_run
// --audit-out) can be audited offline by the hetflow_check CLI.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/access.hpp"
#include "data/coherence.hpp"
#include "sim/event_queue.hpp"
#include "trace/tracer.hpp"
#include "util/interner.hpp"

namespace hetflow::check {

/// One executed (or still-open) task: its access list, inferred
/// dependency edges, and the simulated execution interval of the
/// successful attempt.
struct TaskRecord {
  std::uint64_t id = 0;
  std::string name;
  std::vector<data::Access> accesses;
  std::vector<std::uint64_t> dependencies;  ///< parent task ids
  std::uint32_t device = 0;                 ///< meaningful when completed
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  bool completed = false;
};

/// Everything the schedule-level checkers need about one run.
struct RunRecord {
  std::size_t device_count = 0;
  std::size_t node_count = 0;
  /// Memory node backing each device (device id -> node id).
  std::vector<std::uint32_t> device_memory_node;
  /// Per data id: replica size and home node. handle_bytes.size() is the
  /// number of registered handles.
  std::vector<std::uint64_t> handle_bytes;
  std::vector<std::uint32_t> handle_home;
  std::vector<TaskRecord> tasks;
  /// Tracer spans in emission (completion) order; may be empty when the
  /// run was executed with tracing disabled.
  std::vector<trace::Span> spans;
  /// Owns the span names of a record parsed from a file (copies share
  /// it). Null for a live snapshot, whose spans borrow the runtime's
  /// interned names.
  std::shared_ptr<util::StringInterner> names;

  std::size_t handle_count() const noexcept { return handle_bytes.size(); }
};

/// End-of-run snapshot of the MSI replica directory plus the byte
/// accounting the directory *claims*, so the checker can cross-verify
/// the claim against the per-replica ground truth.
struct DirectoryRecord {
  std::size_t node_count = 0;
  std::vector<std::uint64_t> handle_bytes;       ///< per data id
  std::vector<std::uint64_t> capacity_bytes;     ///< per memory node
  /// states[data * node_count + node]
  std::vector<data::ReplicaState> states;
  std::vector<std::uint64_t> claimed_resident_bytes;  ///< per memory node

  std::size_t handle_count() const noexcept { return handle_bytes.size(); }
  data::ReplicaState state(std::size_t data, std::size_t node) const {
    return states[data * node_count + node];
  }
};

/// The complete auditable artifact (what --audit-out serializes).
struct AuditRecord {
  RunRecord run;
  DirectoryRecord directory;
};

}  // namespace hetflow::check
