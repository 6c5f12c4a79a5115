#include "sched/registry.hpp"

#include "sched/batch.hpp"
#include "sched/cpop.hpp"
#include "sched/critical_path.hpp"
#include "sched/dmda.hpp"
#include "sched/dmdas.hpp"
#include "sched/eager.hpp"
#include "sched/energy_aware.hpp"
#include "sched/heft.hpp"
#include "sched/mct.hpp"
#include "sched/peft.hpp"
#include "sched/random_sched.hpp"
#include "sched/round_robin.hpp"
#include "sched/work_stealing.hpp"
#include "util/error.hpp"

namespace hetflow::sched {

namespace {

using Factory = std::unique_ptr<core::Scheduler> (*)(std::uint64_t seed);

template <typename Policy, auto... Args>
std::unique_ptr<core::Scheduler> build(std::uint64_t /*seed*/) {
  return std::make_unique<Policy>(Args...);
}

std::unique_ptr<core::Scheduler> build_random(std::uint64_t seed) {
  return std::make_unique<RandomScheduler>(seed);
}

struct Entry {
  const char* name;
  Factory build;
};

// Canonical order: scheduler_names() returns the names in this order.
constexpr Entry kSchedulers[] = {
    {"eager", build<EagerScheduler>},
    {"random", build_random},
    {"round-robin", build<RoundRobinScheduler>},
    {"mct", build<MctScheduler>},
    {"dmda", build<DmdaScheduler>},
    {"dmdas", build<DmdasScheduler>},
    {"min-min", build<BatchScheduler, BatchPolicy::MinMin>},
    {"max-min", build<BatchScheduler, BatchPolicy::MaxMin>},
    {"sufferage", build<BatchScheduler, BatchPolicy::Sufferage>},
    {"heft", build<HeftScheduler>},
    {"cpop", build<CpopScheduler>},
    {"peft", build<PeftScheduler>},
    {"work-stealing", build<WorkStealingScheduler>},
    {"critical-path", build<CriticalPathScheduler>},
    {"energy-energy", build<EnergyAwareScheduler, EnergyObjective::Energy>},
    {"energy-edp", build<EnergyAwareScheduler, EnergyObjective::Edp>},
    {"energy-performance",
     build<EnergyAwareScheduler, EnergyObjective::Performance>},
};

}  // namespace

std::vector<std::string> scheduler_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kSchedulers) {
    names.emplace_back(entry.name);
  }
  return names;
}

std::unique_ptr<core::Scheduler> make_scheduler(const std::string& name,
                                                std::uint64_t seed) {
  for (const Entry& entry : kSchedulers) {
    if (name == entry.name) {
      return entry.build(seed);
    }
  }
  throw InvalidArgument("unknown scheduler '" + name + "'");
}

}  // namespace hetflow::sched
