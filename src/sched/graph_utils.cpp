#include "sched/graph_utils.hpp"

#include <cmath>

#include "perf/transfer_model.hpp"

namespace hetflow::sched {

TaskGraphView TaskGraphView::build(const core::SchedContext& ctx,
                                   const std::vector<core::Task*>& tasks) {
  TaskGraphView view;
  view.tasks_ = tasks;
  view.graph_.resize(tasks.size());
  view.mean_exec_.assign(tasks.size(), 0.0);

  std::unordered_map<core::TaskId, std::size_t> index;
  index.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    index[tasks[i]->id()] = i;
  }

  const data::DataRegistry& registry = ctx.data_registry();
  // Workflow DAGs are sparse — a couple of parents per task — so sizing
  // for 2 edges per task absorbs nearly every rehash up front.
  view.edge_bytes_.reserve(tasks.size() * 2);
  for (std::size_t child = 0; child < tasks.size(); ++child) {
    for (core::TaskId parent_id : tasks[child]->dependencies) {
      const auto it = index.find(parent_id);
      if (it == index.end()) {
        continue;  // parent completed in an earlier wave
      }
      const std::size_t parent = it->second;
      view.graph_.add_edge(parent, child);
      // Edge payload: handles the parent writes that the child reads.
      std::uint64_t bytes = 0;
      for (const data::Access& out : tasks[parent]->accesses()) {
        if (!data::is_write(out.mode) && !data::is_redux(out.mode)) {
          continue;
        }
        for (const data::Access& in : tasks[child]->accesses()) {
          if (data::is_read(in.mode) && in.data == out.data) {
            bytes += registry.handle(in.data).bytes;
            break;
          }
        }
      }
      view.edge_bytes_[key(parent, child)] = bytes;
    }
  }

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    double total = 0.0;
    std::size_t count = 0;
    for (const hw::Device& device : ctx.platform().devices()) {
      const double est = ctx.estimate_exec_seconds(*tasks[i], device);
      if (std::isfinite(est)) {
        total += est;
        ++count;
      }
    }
    HETFLOW_REQUIRE_MSG(count > 0, "task runs on no device");
    view.mean_exec_[i] = total / static_cast<double>(count);
  }
  return view;
}

std::uint64_t TaskGraphView::edge_bytes(std::size_t a, std::size_t b) const {
  const auto it = edge_bytes_.find(key(a, b));
  return it == edge_bytes_.end() ? 0 : it->second;
}

std::vector<double> TaskGraphView::upward_ranks(
    const hw::Platform& platform) const {
  const perf::TransferModel comm(platform);
  return graph_.upward_ranks(mean_exec_, [&](std::size_t a, std::size_t b) {
    return comm.mean_time_s(edge_bytes(a, b));
  });
}

std::vector<double> TaskGraphView::downward_ranks(
    const hw::Platform& platform) const {
  const perf::TransferModel comm(platform);
  return graph_.downward_ranks(mean_exec_, [&](std::size_t a, std::size_t b) {
    return comm.mean_time_s(edge_bytes(a, b));
  });
}

}  // namespace hetflow::sched
