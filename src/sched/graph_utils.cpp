#include "sched/graph_utils.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "perf/transfer_model.hpp"

namespace hetflow::sched {

TaskGraphView TaskGraphView::build(const core::SchedContext& ctx,
                                   const std::vector<core::Task*>& tasks) {
  const std::size_t n = tasks.size();
  TaskGraphView view;
  view.tasks_ = tasks;
  view.pred_first_.assign(n + 1, 0);
  view.succ_first_.assign(n + 1, 0);
  view.mean_exec_.assign(n, 0.0);
  if (n == 0) {
    return view;
  }
  for (std::size_t i = 1; i < n; ++i) {
    HETFLOW_REQUIRE_MSG(tasks[i - 1]->id() < tasks[i]->id(),
                        "TaskGraphView needs its tasks in ascending id order");
  }
  // Position of each open task by its id's offset from the first one. A
  // cluster node's slice spans most of its wave, but placing that wave
  // already scanned every node per task, so this costs no more.
  constexpr std::size_t kNotOpen = std::numeric_limits<std::size_t>::max();
  const core::TaskId first_id = tasks.front()->id();
  std::vector<std::size_t> position(tasks.back()->id() - first_id + 1,
                                    kNotOpen);
  for (std::size_t i = 0; i < n; ++i) {
    position[tasks[i]->id() - first_id] = i;
  }

  const data::DataRegistry& registry = ctx.data_registry();
  const hw::Platform& platform = ctx.platform();
  const std::vector<hw::DeviceClass>& classes = platform.device_classes();
  std::vector<double> class_exec(classes.size());
  for (std::size_t child = 0; child < n; ++child) {
    const core::Task& task = *tasks[child];
    for (core::TaskId parent_id : task.dependencies) {
      HETFLOW_REQUIRE_MSG(parent_id < task.id(),
                          "task depends on a later-submitted task");
      if (parent_id < first_id || position[parent_id - first_id] == kNotOpen) {
        continue;  // completed in an earlier wave, or on another slice
      }
      const std::size_t parent = position[parent_id - first_id];
      // Edge payload: handles the parent writes that the child reads.
      std::uint64_t bytes = 0;
      for (const data::Access& out : tasks[parent]->accesses()) {
        if (!data::is_write(out.mode) && !data::is_redux(out.mode)) {
          continue;
        }
        for (const data::Access& in : task.accesses()) {
          if (data::is_read(in.mode) && in.data == out.data) {
            bytes += registry.handle(in.data).bytes;
            break;
          }
        }
      }
      view.preds_.push_back({parent, bytes});
      ++view.succ_first_[parent + 1];
    }
    view.pred_first_[child + 1] = view.preds_.size();

    // Mean execution time over the devices that run the task. Members of
    // a device class share one estimate (hw::Platform::device_classes),
    // so ask once per class, then add the class value once per device in
    // id order: the same sum as asking every device.
    for (std::size_t c = 0; c < classes.size(); ++c) {
      class_exec[c] =
          ctx.estimate_exec_seconds(task, platform.device(classes[c].front()));
    }
    double total = 0.0;
    std::size_t count = 0;
    for (const hw::Device& device : platform.devices()) {
      const double est = class_exec[platform.class_of(device.id())];
      if (std::isfinite(est)) {
        total += est;
        ++count;
      }
    }
    HETFLOW_REQUIRE_MSG(count > 0, "task runs on no device");
    view.mean_exec_[child] = total / static_cast<double>(count);
  }

  // Successor rows: scattering the predecessor rows child by child
  // leaves each row in ascending child order.
  std::partial_sum(view.succ_first_.begin(), view.succ_first_.end(),
                   view.succ_first_.begin());
  view.succs_.resize(view.preds_.size());
  std::vector<std::size_t> fill(view.succ_first_.begin(),
                                view.succ_first_.end() - 1);
  for (std::size_t child = 0; child < n; ++child) {
    for (const Edge& edge : view.predecessors(child)) {
      view.succs_[fill[edge.task]++] = {child, edge.bytes};
    }
  }
  return view;
}

std::vector<double> TaskGraphView::upward_ranks(
    const hw::Platform& platform) const {
  // rank(t) = mean_exec(t) + max(0, max over children c of comm + rank(c)).
  // Walking backwards, rank[t] holds the running max over t's children
  // until t's own turn adds its cost and pushes the result to t's parents.
  const perf::TransferModel comm(platform);
  std::vector<double> rank(size(), 0.0);
  for (std::size_t i = size(); i-- > 0;) {
    rank[i] += mean_exec_[i];
    for (const Edge& edge : predecessors(i)) {
      rank[edge.task] =
          std::max(rank[edge.task], comm.mean_time_s(edge.bytes) + rank[i]);
    }
  }
  return rank;
}

std::vector<double> TaskGraphView::downward_ranks(
    const hw::Platform& platform) const {
  // rank(t) = max over parents p of rank(p) + mean_exec(p) + comm.
  const perf::TransferModel comm(platform);
  std::vector<double> rank(size(), 0.0);
  for (std::size_t i = 0; i < size(); ++i) {
    for (const Edge& edge : predecessors(i)) {
      rank[i] = std::max(rank[i], rank[edge.task] + mean_exec_[edge.task] +
                                      comm.mean_time_s(edge.bytes));
    }
  }
  return rank;
}

void prioritize_by_upward_rank(const core::SchedContext& ctx,
                               const std::vector<core::Task*>& tasks) {
  if (tasks.empty()) {
    return;
  }
  const std::vector<double> ranks =
      TaskGraphView::build(ctx, tasks).upward_ranks(ctx.platform());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i]->set_priority(ranks[i]);
  }
}

}  // namespace hetflow::sched
