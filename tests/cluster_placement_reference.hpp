// Test oracle for sched::ClusterScheduler's locality placement
// (sched/cluster.cpp).
//
// ReferenceClusterScheduler is the two-level cluster scheduler as it
// was before placement resolved each input once per task: it scores
// every (input, candidate node) pair from scratch — a per-node replica
// probe of the flat MSI directory, an allocating replica-node list, and
// hash-map lookups of the predicted home and the planned-replica mask —
// and keeps its placements, predicted homes and planned replicas in hash
// maps. Only the candidate set is shared with the current code: nodes
// that cannot run the task (an infinite execution estimate) are never
// candidates, so the two also agree on heterogeneous clusters. Tests run
// the same seeded workload under both and compare placement_of() for
// every task:
//
//   Runtime a(platform, make_cluster_scheduler(cluster, "dmda"), options);
//   Runtime b(platform, std::make_unique<ReferenceClusterScheduler>(
//                           cluster, "dmda"), options);
//   ...submit the same tasks to both, wait_all() both...
//   EXPECT_EQ(placed_a.placement_of(id), placed_b.placement_of(id));
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sched_context.hpp"
#include "core/scheduler.hpp"
#include "core/task.hpp"
#include "data/access.hpp"
#include "data/coherence.hpp"
#include "hw/cluster.hpp"
#include "sched/cluster.hpp"
#include "sched/registry.hpp"

namespace hetflow::testing {

class ReferenceClusterScheduler final : public core::Scheduler {
 public:
  static constexpr std::size_t kNoPlacement =
      sched::ClusterScheduler::kNoPlacement;

  ReferenceClusterScheduler(const hw::Cluster& cluster,
                            const std::string& inner,
                            sched::PlacementPolicy placement =
                                sched::PlacementPolicy::LocalityAware,
                            std::uint64_t seed = 0)
      : cluster_(&cluster), inner_name_(inner), policy_(placement) {
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      inners_.push_back(sched::make_scheduler(inner, seed + n));
      inners_.back()->set_partial_graph(true);
    }
    node_load_s_.assign(cluster.node_count(), 0.0);
    node_count_.assign(cluster.node_count(), 0);
  }

  std::string name() const override { return "reference-cluster:" + inner_name_; }
  bool requires_full_graph() const noexcept override {
    return inners_.front()->requires_full_graph();
  }

  void attach(core::SchedContext& ctx) override {
    core::Scheduler::attach(ctx);
    directory_ = ctx.coherence();
    contexts_.clear();
    for (std::size_t n = 0; n < inners_.size(); ++n) {
      contexts_.push_back(std::make_unique<NodeContext>(ctx, *cluster_, n));
      inners_[n]->attach(*contexts_[n]);
    }
  }

  void prepare(const std::vector<core::Task*>& all_tasks) override {
    if (!requires_full_graph()) {
      return;
    }
    std::vector<std::vector<core::Task*>> per_node(inners_.size());
    for (core::Task* task : all_tasks) {
      const auto it = placements_.find(task->id());
      const std::size_t node =
          it != placements_.end() ? it->second.node : place(*task);
      per_node[node].push_back(task);
    }
    for (std::size_t n = 0; n < inners_.size(); ++n) {
      inners_[n]->prepare(per_node[n]);
    }
  }

  void on_task_ready(core::Task& task) override {
    std::size_t node;
    const auto it = placements_.find(task.id());
    if (it == placements_.end()) {
      node = place(task);
    } else {
      node = it->second.node;
      if (!node_usable(node)) {
        node_load_s_[node] =
            std::max(0.0, node_load_s_[node] - it->second.est_s);
        if (node_count_[node] > 0) {
          --node_count_[node];
        }
        placements_.erase(it);
        node = place(task);
      }
    }
    inners_[node]->on_task_ready(task);
  }

  core::Task* on_device_idle(const hw::Device& device) override {
    const std::size_t n = cluster_->node_of_device(device.id());
    const hw::Device& local = cluster_->node_platform(n).device(
        static_cast<hw::DeviceId>(device.id() - cluster_->node(n).first_device));
    return inners_[n]->on_device_idle(local);
  }

  bool has_retained_work() const noexcept override {
    for (const auto& inner : inners_) {
      if (inner->has_retained_work()) {
        return true;
      }
    }
    return false;
  }

  void on_task_complete(const core::Task& task) override {
    const auto it = placements_.find(task.id());
    if (it == placements_.end()) {
      return;
    }
    node_load_s_[it->second.node] =
        std::max(0.0, node_load_s_[it->second.node] - it->second.est_s);
    inners_[it->second.node]->on_task_complete(task);
  }

  void on_task_failed(const core::Task& task, hw::DeviceId device) override {
    const std::size_t n = cluster_->node_of_device(device);
    inners_[n]->on_task_failed(
        task,
        static_cast<hw::DeviceId>(device - cluster_->node(n).first_device));
  }

  std::size_t placement_of(core::TaskId task) const {
    const auto it = placements_.find(task);
    return it != placements_.end() ? it->second.node : kNoPlacement;
  }

 private:
  /// The per-node window each inner scheduler sees (local device ids).
  class NodeContext final : public core::SchedContext {
   public:
    NodeContext(core::SchedContext& parent, const hw::Cluster& cluster,
                std::size_t node)
        : parent_(&parent),
          local_(&cluster.node_platform(node)),
          first_device_(cluster.node(node).first_device) {}

    const hw::Platform& platform() const override { return *local_; }
    sim::SimTime now() const override { return parent_->now(); }
    const data::DataRegistry& data_registry() const override {
      return parent_->data_registry();
    }
    double estimate_exec_seconds(
        const core::Task& task, const hw::Device& device,
        std::optional<std::size_t> dvfs) const override {
      return parent_->estimate_exec_seconds(task, global(device), dvfs);
    }
    sim::SimTime device_available_at(
        const hw::Device& device) const override {
      return parent_->device_available_at(global(device));
    }
    sim::SimTime estimate_data_ready(const core::Task& task,
                                     const hw::Device& device,
                                     sim::SimTime earliest) const override {
      return parent_->estimate_data_ready(task, global(device), earliest);
    }
    std::uint64_t missing_input_bytes(
        const core::Task& task, const hw::Device& device) const override {
      return parent_->missing_input_bytes(task, global(device));
    }
    sim::SimTime estimate_completion(
        const core::Task& task, const hw::Device& device,
        std::optional<std::size_t> dvfs) const override {
      return parent_->estimate_completion(task, global(device), dvfs);
    }
    double estimate_energy(const core::Task& task, const hw::Device& device,
                           std::optional<std::size_t> dvfs) const override {
      return parent_->estimate_energy(task, global(device), dvfs);
    }
    bool device_blacklisted(const hw::Device& device) const override {
      return parent_->device_blacklisted(global(device));
    }
    obs::Recorder* recorder() const noexcept override {
      return parent_->recorder();
    }
    const data::CoherenceDirectory* coherence() const noexcept override {
      return parent_->coherence();
    }
    std::size_t queue_length(const hw::Device& device) const override {
      return parent_->queue_length(global(device));
    }
    std::size_t busy_device_count() const override {
      return parent_->busy_device_count();
    }
    void assign(core::Task& task, const hw::Device& device,
                std::optional<std::size_t> dvfs) override {
      parent_->assign(task, global(device), dvfs);
    }

   private:
    const hw::Device& global(const hw::Device& device) const {
      return parent_->platform().device(
          static_cast<hw::DeviceId>(first_device_ + device.id()));
    }

    core::SchedContext* parent_;
    const hw::Platform* local_;
    hw::DeviceId first_device_;
  };

  struct Placement {
    std::size_t node = 0;
    double est_s = 0.0;
  };

  bool node_usable(std::size_t n) const {
    const hw::ClusterNode& node = cluster_->node(n);
    for (std::size_t i = 0; i < node.device_count; ++i) {
      const hw::Device& device = ctx().platform().device(
          static_cast<hw::DeviceId>(node.first_device + i));
      if (!ctx().device_blacklisted(device)) {
        return true;
      }
    }
    return false;
  }

  /// Infinite when no device on the node can run the task.
  double est_exec_on(const core::Task& task, std::size_t n) const {
    const hw::DeviceId first = cluster_->node(n).first_device;
    double best = std::numeric_limits<double>::infinity();
    for (const hw::DeviceClass& members :
         cluster_->node_platform(n).device_classes()) {
      const hw::Device& device = ctx().platform().device(
          static_cast<hw::DeviceId>(first + members.front()));
      best = std::min(best, ctx().estimate_exec_seconds(task, device));
    }
    return best;
  }

  bool node_has_replica(data::DataId data, std::size_t n) const {
    const hw::ClusterNode& node = cluster_->node(n);
    for (std::size_t m = 0; m < node.memory_count; ++m) {
      if (directory_->has_valid_replica(
              data, static_cast<hw::MemoryNodeId>(node.first_memory + m))) {
        return true;
      }
    }
    return false;
  }

  std::vector<std::size_t> replica_nodes(data::DataId data) const {
    std::vector<std::size_t> nodes;
    for (std::size_t n = 0; n < cluster_->node_count(); ++n) {
      if (node_has_replica(data, n)) {
        nodes.push_back(n);
      }
    }
    return nodes;
  }

  double transfer_cost_s(const core::Task& task, std::size_t n) const {
    double cost = 0.0;
    const data::DataRegistry& registry = ctx().data_registry();
    for (const data::Access& access : task.accesses()) {
      if (!data::is_read(access.mode) && !data::is_redux(access.mode)) {
        continue;
      }
      const std::uint64_t bytes = registry.handle(access.data).bytes;
      if (bytes == 0) {
        continue;
      }
      if (directory_ != nullptr && node_has_replica(access.data, n)) {
        continue;
      }
      double hop = std::numeric_limits<double>::infinity();
      if (directory_ != nullptr) {
        for (const std::size_t replica : replica_nodes(access.data)) {
          hop = std::min(hop, cluster_->internode_time_s(replica, n, bytes));
        }
      }
      if (!std::isfinite(hop)) {
        const auto predicted = predicted_home_.find(access.data);
        if (predicted != predicted_home_.end()) {
          hop = cluster_->internode_time_s(predicted->second, n, bytes);
        } else {
          hop = 0.0;
        }
      }
      const auto planned = planned_replica_.find(access.data);
      if (planned != planned_replica_.end() && planned->second[n]) {
        hop *= 0.5;
      }
      cost += hop;
    }
    return cost;
  }

  std::size_t choose_node(const core::Task& task) {
    std::vector<std::size_t> usable;
    for (std::size_t n = 0; n < cluster_->node_count(); ++n) {
      if (node_usable(n) && std::isfinite(est_exec_on(task, n))) {
        usable.push_back(n);
      }
    }
    if (usable.empty()) {
      for (std::size_t n = 0; n < cluster_->node_count(); ++n) {
        if (std::isfinite(est_exec_on(task, n))) {
          usable.push_back(n);
        }
      }
    }
    if (policy_ == sched::PlacementPolicy::RoundRobin) {
      const std::size_t pick = usable[next_node_ % usable.size()];
      ++next_node_;
      return pick;
    }
    std::uint32_t min_count = std::numeric_limits<std::uint32_t>::max();
    for (const std::size_t n : usable) {
      min_count = std::min(min_count, node_count_[n]);
    }
    std::size_t pick = usable.front();
    double best = std::numeric_limits<double>::infinity();
    for (const std::size_t n : usable) {
      if (node_count_[n] > min_count + 1) {
        continue;
      }
      const double score = transfer_cost_s(task, n) + est_exec_on(task, n) +
                           node_load_s_[n];
      if (score < best) {
        best = score;
        pick = n;
      }
    }
    return pick;
  }

  std::size_t place(const core::Task& task) {
    const std::size_t node = choose_node(task);
    const double est = est_exec_on(task, node);
    node_load_s_[node] += est;
    ++node_count_[node];
    placements_[task.id()] = Placement{node, est};
    for (const data::Access& access : task.accesses()) {
      if (data::is_write(access.mode) || data::is_redux(access.mode)) {
        predicted_home_[access.data] = node;
      }
      std::vector<bool>& mask = planned_replica_[access.data];
      if (mask.empty()) {
        mask.assign(cluster_->node_count(), false);
      }
      mask[node] = true;
    }
    return node;
  }

  const hw::Cluster* cluster_;
  std::string inner_name_;
  sched::PlacementPolicy policy_;
  std::vector<std::unique_ptr<core::Scheduler>> inners_;
  std::vector<std::unique_ptr<NodeContext>> contexts_;
  const data::CoherenceDirectory* directory_ = nullptr;
  std::unordered_map<core::TaskId, Placement> placements_;
  std::unordered_map<data::DataId, std::size_t> predicted_home_;
  std::unordered_map<data::DataId, std::vector<bool>> planned_replica_;
  std::vector<double> node_load_s_;
  std::vector<std::uint32_t> node_count_;
  std::size_t next_node_ = 0;
};

}  // namespace hetflow::testing
