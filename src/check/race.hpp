// hetflow-verify: happens-before schedule race detector.
//
// Replays the task records of a completed run and flags every pair of
// conflicting accesses (RAW / WAW / WAR on one handle) whose simulated
// execution intervals overlap without a dependency path between the two
// tasks. A sweep over each handle's uses in start order compares only
// uses that overlap, and only those pairs search for a path, so a
// correct run costs O(tasks + edges + uses log uses).
#pragma once

#include <cstdint>
#include <vector>

#include "check/record.hpp"
#include "check/violation.hpp"

namespace hetflow::check {

/// Reachability along a RunRecord's dependency edges, searched per query
/// with shared scratch (not thread-safe).
class HappensBefore {
 public:
  explicit HappensBefore(const RunRecord& run);

  /// True when the dependency edges contain a cycle (a task that depends
  /// on itself included). A path then counts only when no task on it but
  /// the last is on a cycle or reachable from one.
  bool has_cycle() const noexcept { return has_cycle_; }

  /// True iff a dependency path orders the two tasks (either direction).
  /// Indices are positions into run.tasks, not task ids.
  bool ordered(std::size_t a, std::size_t b) const {
    return reaches(a, b) || reaches(b, a);
  }

  /// True iff task `ancestor` happens-before task `descendant`.
  bool reaches(std::size_t ancestor, std::size_t descendant) const;

 private:
  std::vector<std::vector<std::size_t>> children_;  ///< dependency edges
  /// Kahn order (a path climbs in rank); npos on or behind a cycle.
  std::vector<std::size_t> rank_;
  bool has_cycle_ = false;
  /// A task is visited in the current query iff seen_[task] == query_.
  mutable std::vector<std::size_t> seen_;
  mutable std::size_t query_ = 0;
  mutable std::vector<std::size_t> stack_;
};

/// Runs the race detector. Also reports dependency edges the executed
/// schedule did not respect, dangling task/handle references, and
/// dependency cycles. `uses_swept` (optional) receives the number of
/// uses the sweep examined (each completed task's accesses to registered
/// handles, for tasks that ran longer than 1e-9 s), for coverage
/// reporting. Within a handle, violations come out in start order.
std::vector<Violation> check_races(const RunRecord& run,
                                   std::size_t* uses_swept = nullptr);

}  // namespace hetflow::check
