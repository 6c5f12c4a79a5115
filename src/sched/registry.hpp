// Scheduler factory: construct any built-in policy by name. The canonical
// spelling list is what benches/tests iterate over.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace hetflow::sched {

/// Names accepted by make_scheduler, in canonical order:
/// "eager", "random", "round-robin", "mct", "dmda", "dmdas", "min-min",
/// "max-min", "sufferage", "heft", "cpop", "peft", "work-stealing",
/// "critical-path", "energy-energy", "energy-edp", "energy-performance".
std::vector<std::string> scheduler_names();

/// Builds a scheduler by name; `seed` feeds randomized policies.
/// Throws InvalidArgument for unknown names.
std::unique_ptr<core::Scheduler> make_scheduler(const std::string& name,
                                                std::uint64_t seed = 1);

}  // namespace hetflow::sched
