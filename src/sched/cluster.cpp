#include "sched/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/registry.hpp"
#include "util/error.hpp"

namespace hetflow::sched {

// ---------------------------------------------------------------------------
// NodeContext — the narrowing window one inner scheduler sees its node
// through. platform() is the ORIGINAL per-node Platform (local ids from
// 0), so inner policies iterate only their node's devices; every query
// and the assign() command translate local -> flat ids and forward.
// ---------------------------------------------------------------------------

class ClusterScheduler::NodeContext final : public core::SchedContext {
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
  sim::SimTime device_available_at(const hw::Device& device) const override {
    return parent_->device_available_at(global(device));
  }
  sim::SimTime estimate_data_ready(const core::Task& task,
                                   const hw::Device& device,
                                   sim::SimTime earliest) const override {
    return parent_->estimate_data_ready(task, global(device), earliest);
  }
  std::uint64_t missing_input_bytes(const core::Task& task,
                                    const hw::Device& device) const override {
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
  void record_decision(obs::SchedDecision decision) override {
    decision.winner += first_device_;
    for (obs::DecisionCandidate& candidate : decision.candidates) {
      candidate.device += first_device_;
      for (hw::DeviceId& id : candidate.quarantined) {
        id += first_device_;
      }
    }
    parent_->record_decision(std::move(decision));
  }
  const data::CoherenceDirectory* coherence() const noexcept override {
    return parent_->coherence();
  }
  std::size_t queue_length(const hw::Device& device) const override {
    return parent_->queue_length(global(device));
  }
  std::size_t busy_device_count() const override {
    // Cluster-wide; only ever used as a load heuristic by inner policies.
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

// ---------------------------------------------------------------------------
// ClusterScheduler
// ---------------------------------------------------------------------------

ClusterScheduler::ClusterScheduler(const hw::Cluster& cluster,
                                   const std::string& inner,
                                   PlacementPolicy placement,
                                   std::uint64_t seed)
    : cluster_(&cluster),
      inner_name_(inner),
      policy_(placement),
      seed_(seed) {
  inners_.reserve(cluster.node_count());
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    inners_.push_back(make_scheduler(inner, seed + n));
    // Each inner plans over its node's SLICE of the DAG; cross-node
    // edges are invisible to it, so static planners must not hold every
    // ready task behind a blocked plan head (two slice plans can order
    // a cross-node edge inconsistently and deadlock each other).
    inners_.back()->set_partial_graph(true);
  }
  node_load_s_.assign(cluster.node_count(), 0.0);
  node_count_.assign(cluster.node_count(), 0);
  words_per_datum_ = (cluster.node_count() + 63) / 64;
  candidates_.reserve(cluster.node_count());
}

ClusterScheduler::~ClusterScheduler() = default;

std::string ClusterScheduler::name() const {
  std::string name = "cluster:" + inner_name_;
  if (policy_ == PlacementPolicy::RoundRobin) {
    name += ":blind";
  }
  return name;
}

bool ClusterScheduler::requires_full_graph() const noexcept {
  return inners_.front()->requires_full_graph();
}

void ClusterScheduler::attach(core::SchedContext& ctx) {
  core::Scheduler::attach(ctx);
  const data::CoherenceDirectory* coherence = ctx.coherence();
  if (coherence != nullptr) {
    directory_ = std::make_unique<data::DistributedDirectory>(
        *coherence, cluster_->memory_to_node());
  }
  contexts_.clear();
  contexts_.reserve(inners_.size());
  for (std::size_t n = 0; n < inners_.size(); ++n) {
    contexts_.push_back(std::make_unique<NodeContext>(ctx, *cluster_, n));
    inners_[n]->attach(*contexts_[n]);
  }
}

bool ClusterScheduler::node_usable(std::size_t n) const {
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

bool ClusterScheduler::node_runs(const core::Task& task, std::size_t n) const {
  const hw::Platform& local = cluster_->node_platform(n);
  return std::any_of(local.device_classes().begin(),
                     local.device_classes().end(),
                     [&](const hw::DeviceClass& members) {
                       return core::can_run(
                           task, local.device(members.front()), local);
                     });
}

double ClusterScheduler::est_exec_on(const core::Task& task,
                                     std::size_t n) const {
  // The execution estimate is one value per device class, so one member
  // of each of the node's classes that can run the task stands for the
  // rest.
  const hw::Platform& local = cluster_->node_platform(n);
  const hw::DeviceId first = cluster_->node(n).first_device;
  double best = std::numeric_limits<double>::infinity();
  for (const hw::DeviceClass& members : local.device_classes()) {
    if (!core::can_run(task, local.device(members.front()), local)) {
      continue;
    }
    const hw::Device& device = ctx().platform().device(
        static_cast<hw::DeviceId>(first + members.front()));
    best = std::min(best, ctx().estimate_exec_seconds(task, device));
  }
  return best;
}

void ClusterScheduler::resolve_inputs(const core::Task& task) {
  inputs_.clear();
  replica_nodes_.clear();
  const data::DataRegistry& registry = ctx().data_registry();
  for (const data::Access& access : task.accesses()) {
    if (!data::is_read(access.mode) && !data::is_redux(access.mode)) {
      continue;
    }
    Input input;
    input.bytes = registry.handle(access.data).bytes;
    if (input.bytes == 0) {
      continue;
    }
    input.first = replica_nodes_.size();
    if (directory_ != nullptr) {
      directory_->append_replica_nodes(access.data, replica_nodes_);
    }
    input.last = replica_nodes_.size();
    if (access.data < predicted_home_.size()) {
      input.predicted = predicted_home_[access.data];
    }
    const std::size_t row =
        static_cast<std::size_t>(access.data) * words_per_datum_;
    if (row < planned_replica_.size()) {
      input.planned = planned_replica_.data() + row;
    }
    inputs_.push_back(input);
  }
}

double ClusterScheduler::transfer_cost_s(std::size_t n) const {
  double cost = 0.0;
  for (const Input& input : inputs_) {
    double hop = std::numeric_limits<double>::infinity();
    bool resident = false;
    for (std::size_t r = input.first; r < input.last; ++r) {
      if (replica_nodes_[r] == n) {
        resident = true;  // already on this node
        break;
      }
      hop = std::min(hop,
                     cluster_->internode_time_s(replica_nodes_[r], n,
                                                input.bytes));
    }
    if (resident) {
      continue;
    }
    if (!std::isfinite(hop)) {
      // Not materialized yet: chase where its producer was placed.
      hop = input.predicted != kNoPlacement
                ? cluster_->internode_time_s(input.predicted, n, input.bytes)
                : 0.0;  // unknown origin — no penalty
    }
    if (input.planned != nullptr &&
        ((input.planned[n / 64] >> (n % 64)) & 1U) != 0) {
      // An already-placed consumer is bound to pull the datum here, so
      // this task likely rides that replica — but only if it runs after
      // the fetch. Discount rather than zero the hop: the certain copy
      // (producer home or live replica) should still win ties instead
      // of load noise scattering consumers off it.
      hop *= kPlannedReplicaDiscount;
    }
    cost += hop;
  }
  return cost;
}

std::size_t ClusterScheduler::choose_node(const core::Task& task,
                                          double& est) {
  // Candidates: nodes with a device class that can run the task, minus
  // those with every device quarantined — unless that leaves none; then
  // all capable nodes stay (mirrors dmda's two-pass fallback: stragglers
  // wait out probation rather than stall). Only scored nodes are
  // estimated.
  candidates_.clear();
  for (std::size_t n = 0; n < cluster_->node_count(); ++n) {
    if (node_runs(task, n)) {
      candidates_.push_back(n);
    }
  }
  HETFLOW_REQUIRE_MSG(!candidates_.empty(),
                      "cluster placement: no node can run the task");
  const auto quarantined = [this](std::size_t n) { return !node_usable(n); };
  if (!std::all_of(candidates_.begin(), candidates_.end(), quarantined)) {
    std::erase_if(candidates_, quarantined);
  }
  if (policy_ == PlacementPolicy::RoundRobin) {
    const std::size_t pick = candidates_[next_node_ % candidates_.size()];
    ++next_node_;
    est = est_exec_on(task, pick);
    return pick;
  }
  // Balance cap (delay-scheduling style): only nodes within a small
  // placed-count slack of the emptiest node are candidates. Flop-based
  // exec estimates underprice real absorption cost (staging, CPU
  // spill), so an uncapped locality score piles same-stage siblings
  // onto replica-holding nodes and serializes them; the cap keeps the
  // count spread as tight as round-robin's while still letting data
  // affinity pick WHICH of the balanced nodes gets each task.
  std::uint32_t min_count = std::numeric_limits<std::uint32_t>::max();
  for (const std::size_t n : candidates_) {
    min_count = std::min(min_count, node_count_[n]);
  }
  // Each input's replicas, predicted home and planned row are looked up
  // once here; the score below reads only that table.
  resolve_inputs(task);
  // The emptiest node is always within the cap, so a pick is scored.
  std::size_t pick = candidates_.front();
  double best = std::numeric_limits<double>::infinity();
  for (const std::size_t n : candidates_) {
    if (node_count_[n] > min_count + kBalanceSlack) {
      continue;
    }
    const double exec = est_exec_on(task, n);
    const double score = transfer_cost_s(n) + exec + node_load_s_[n];
    // Strict less-than: ties break toward the lowest node id, keeping
    // placement deterministic across runs and thread counts.
    if (score < best) {
      best = score;
      pick = n;
      est = exec;
    }
  }
  return pick;
}

std::size_t ClusterScheduler::place(const core::Task& task) {
  double est = 0.0;
  const std::size_t node = choose_node(task, est);
  node_load_s_[node] += est;
  ++node_count_[node];
  if (task.id() >= placements_.size()) {
    placements_.resize(task.id() + 1);
  }
  placements_[task.id()] = Placement{node, est};
  for (const data::Access& access : task.accesses()) {
    if (access.data >= predicted_home_.size()) {
      predicted_home_.resize(access.data + 1, kNoPlacement);
      planned_replica_.resize(predicted_home_.size() * words_per_datum_, 0);
    }
    if (data::is_write(access.mode) || data::is_redux(access.mode)) {
      predicted_home_[access.data] = node;
    }
    // Reads and writes alike leave (or create) a replica here; record
    // it so later consumers score this node as transfer-free.
    planned_replica_[access.data * words_per_datum_ + node / 64] |=
        std::uint64_t{1} << (node % 64);
  }
  return node;
}

const ClusterScheduler::Placement* ClusterScheduler::find_placement(
    core::TaskId task) const {
  if (task >= placements_.size() ||
      placements_[task].node == kNoPlacement) {
    return nullptr;
  }
  return &placements_[task];
}

void ClusterScheduler::prepare(const std::vector<core::Task*>& all_tasks) {
  // Dynamic inner policies get their tasks placed lazily, at ready
  // time: node_load_s_ then reflects only work that is genuinely
  // outstanding and the MSI directory holds real replicas. Placing the
  // whole graph here would charge node load for tasks (a long serial
  // stage, say) that complete long before wide later stages become
  // ready, and that stale load skews wide-stage placement off the data.
  if (!requires_full_graph()) {
    return;
  }
  // Static inner policies (heft, cpop, ...) must see their full slice
  // up front to plan, so place every open task now (submission order —
  // deterministic) and hand each inner exactly its node's share.
  std::vector<std::vector<core::Task*>> per_node(inners_.size());
  for (core::Task* task : all_tasks) {
    const Placement* placed = find_placement(task->id());
    const std::size_t node = placed != nullptr ? placed->node : place(*task);
    per_node[node].push_back(task);
  }
  for (std::size_t n = 0; n < inners_.size(); ++n) {
    inners_[n]->prepare(per_node[n]);
  }
}

void ClusterScheduler::on_task_ready(core::Task& task) {
  std::size_t node;
  const Placement* placed = find_placement(task.id());
  if (placed == nullptr) {
    node = place(task);
  } else {
    node = placed->node;
    if (!node_usable(node)) {
      // The pinned node died (whole-node fault): release its load
      // charge and re-place among the survivors.
      node_load_s_[node] = std::max(0.0, node_load_s_[node] - placed->est_s);
      if (node_count_[node] > 0) {
        --node_count_[node];
      }
      node = place(task);
    }
  }
  inners_[node]->on_task_ready(task);
}

core::Task* ClusterScheduler::on_device_idle(const hw::Device& device) {
  const std::size_t n = cluster_->node_of_device(device.id());
  const hw::ClusterNode& node = cluster_->node(n);
  const hw::Device& local = cluster_->node_platform(n).device(
      static_cast<hw::DeviceId>(device.id() - node.first_device));
  return inners_[n]->on_device_idle(local);
}

bool ClusterScheduler::has_retained_work() const noexcept {
  for (const auto& inner : inners_) {
    if (inner->has_retained_work()) {
      return true;
    }
  }
  return false;
}

void ClusterScheduler::on_task_complete(const core::Task& task) {
  const Placement* placed = find_placement(task.id());
  if (placed == nullptr) {
    return;
  }
  node_load_s_[placed->node] =
      std::max(0.0, node_load_s_[placed->node] - placed->est_s);
  inners_[placed->node]->on_task_complete(task);
}

void ClusterScheduler::on_task_failed(const core::Task& task,
                                      hw::DeviceId device) {
  const std::size_t n = cluster_->node_of_device(device);
  inners_[n]->on_task_failed(
      task, static_cast<hw::DeviceId>(device - cluster_->node(n).first_device));
}

std::size_t ClusterScheduler::placement_of(core::TaskId task) const {
  const Placement* placed = find_placement(task);
  return placed != nullptr ? placed->node : kNoPlacement;
}

std::unique_ptr<core::Scheduler> make_cluster_scheduler(
    const hw::Cluster& cluster, const std::string& inner,
    const std::string& placement, std::uint64_t seed) {
  PlacementPolicy policy = PlacementPolicy::LocalityAware;
  if (placement == "blind" || placement == "round-robin") {
    policy = PlacementPolicy::RoundRobin;
  } else if (placement != "locality" && placement != "locality-aware") {
    throw InvalidArgument("unknown cluster placement '" + placement +
                          "' (expected locality|blind)");
  }
  return std::make_unique<ClusterScheduler>(cluster, inner, policy, seed);
}

}  // namespace hetflow::sched
