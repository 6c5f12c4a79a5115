#include "timing.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace core = hetflow::core;
namespace hw = hetflow::hw;

std::int64_t SpanLog::interval(std::string name, Clock::time_point start,
                               Clock::time_point end, std::int64_t parent,
                               std::uint64_t id) {
  Span span;
  span.name = std::move(name);
  span.start_ns = ns_between(origin_, start);
  span.end_ns = ns_between(origin_, end);
  span.parent = parent;
  span.id = id;
  span.total_ns = span.end_ns - span.start_ns;
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index, Clock::time_point end) {
  Span& span = spans_.at(static_cast<std::size_t>(index));
  span.end_ns = ns_between(origin_, end);
  span.total_ns = span.end_ns - span.start_ns;
}

void SpanLog::aggregate(std::string name, std::int64_t parent,
                        std::uint64_t count, std::int64_t total_ns) {
  const Span& outer = spans_.at(static_cast<std::size_t>(parent));
  Span span;
  span.name = std::move(name);
  span.start_ns = outer.start_ns;
  span.end_ns = outer.end_ns;
  span.parent = parent;
  span.id = outer.id;
  span.count = count;
  span.total_ns = total_ns;
  spans_.push_back(std::move(span));
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  char line[512];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%lld,\"id\":%llu,\"count\":%llu,"
                  "\"total_ns\":%lld}\n",
                  span.name.c_str(), static_cast<long long>(span.start_ns),
                  static_cast<long long>(span.end_ns),
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.count),
                  static_cast<long long>(span.total_ns));
    out << line;
  }
  return static_cast<bool>(out);
}

namespace {

/// Adds the duration of its scope to a counter pair.
class ScopedTimer {
 public:
  ScopedTimer(std::int64_t& ns, std::uint64_t& calls)
      : ns_(&ns), start_(Clock::now()) {
    ++calls;
  }
  ~ScopedTimer() { *ns_ += ns_between(start_, Clock::now()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::int64_t* ns_;
  Clock::time_point start_;
};

class TimingContext final : public core::SchedContext {
 public:
  TimingContext(core::SchedContext& inner, LayerCounters& counters)
      : inner_(&inner), c_(&counters) {}

  const hw::Platform& platform() const override { return inner_->platform(); }
  hetflow::sim::SimTime now() const override { return inner_->now(); }
  const hetflow::data::DataRegistry& data_registry() const override {
    return inner_->data_registry();
  }
  double estimate_exec_seconds(
      const core::Task& task, const hw::Device& device,
      std::optional<std::size_t> dvfs) const override {
    ScopedTimer timer(c_->perf_ns, c_->perf_calls);
    return inner_->estimate_exec_seconds(task, device, dvfs);
  }
  hetflow::sim::SimTime device_available_at(
      const hw::Device& device) const override {
    ScopedTimer timer(c_->query_ns, c_->queries);
    return inner_->device_available_at(device);
  }
  hetflow::sim::SimTime estimate_data_ready(
      const core::Task& task, const hw::Device& device,
      hetflow::sim::SimTime earliest) const override {
    ScopedTimer timer(c_->data_ns, c_->data_calls);
    return inner_->estimate_data_ready(task, device, earliest);
  }
  std::uint64_t missing_input_bytes(const core::Task& task,
                                    const hw::Device& device) const override {
    ScopedTimer timer(c_->data_ns, c_->data_calls);
    return inner_->missing_input_bytes(task, device);
  }
  hetflow::sim::SimTime estimate_completion(
      const core::Task& task, const hw::Device& device,
      std::optional<std::size_t> dvfs) const override {
    ScopedTimer timer(c_->perf_ns, c_->perf_calls);
    return inner_->estimate_completion(task, device, dvfs);
  }
  double estimate_energy(const core::Task& task, const hw::Device& device,
                         std::optional<std::size_t> dvfs) const override {
    ScopedTimer timer(c_->perf_ns, c_->perf_calls);
    return inner_->estimate_energy(task, device, dvfs);
  }
  bool device_blacklisted(const hw::Device& device) const override {
    return inner_->device_blacklisted(device);
  }
  hetflow::obs::Recorder* recorder() const noexcept override {
    return inner_->recorder();
  }
  const hetflow::data::CoherenceDirectory* coherence() const noexcept override {
    return inner_->coherence();
  }
  std::size_t queue_length(const hw::Device& device) const override {
    ScopedTimer timer(c_->query_ns, c_->queries);
    return inner_->queue_length(device);
  }
  std::size_t busy_device_count() const override {
    ScopedTimer timer(c_->query_ns, c_->queries);
    return inner_->busy_device_count();
  }
  void assign(core::Task& task, const hw::Device& device,
              std::optional<std::size_t> dvfs) override {
    ScopedTimer timer(c_->assign_ns, c_->assigns);
    inner_->assign(task, device, dvfs);
  }

 private:
  core::SchedContext* inner_;
  LayerCounters* c_;
};

class TimingScheduler final : public core::Scheduler {
 public:
  TimingScheduler(std::unique_ptr<core::Scheduler> inner,
                  LayerCounters& counters)
      : inner_(std::move(inner)), c_(&counters) {}

  std::string name() const override { return inner_->name(); }
  bool requires_full_graph() const noexcept override {
    return inner_->requires_full_graph();
  }
  void set_partial_graph(bool partial) noexcept override {
    inner_->set_partial_graph(partial);
  }
  void attach(core::SchedContext& ctx) override {
    core::Scheduler::attach(ctx);
    context_ = std::make_unique<TimingContext>(ctx, *c_);
    ScopedTimer timer(c_->callback_ns, c_->callbacks);
    inner_->attach(*context_);
  }
  void prepare(const std::vector<core::Task*>& all_tasks) override {
    ScopedTimer timer(c_->callback_ns, c_->callbacks);
    inner_->prepare(all_tasks);
  }
  void on_task_ready(core::Task& task) override {
    ScopedTimer timer(c_->callback_ns, c_->callbacks);
    inner_->on_task_ready(task);
  }
  core::Task* on_device_idle(const hw::Device& device) override {
    ScopedTimer timer(c_->callback_ns, c_->callbacks);
    ++c_->idle_probes;
    core::Task* task = inner_->on_device_idle(device);
    if (task != nullptr) {
      ++c_->idle_hits;
    }
    return task;
  }
  bool has_retained_work() const noexcept override {
    return inner_->has_retained_work();
  }
  void on_task_complete(const core::Task& task) override {
    ScopedTimer timer(c_->callback_ns, c_->callbacks);
    inner_->on_task_complete(task);
  }
  void on_task_failed(const core::Task& task, hw::DeviceId device) override {
    ScopedTimer timer(c_->callback_ns, c_->callbacks);
    inner_->on_task_failed(task, device);
  }

 private:
  std::unique_ptr<core::Scheduler> inner_;
  LayerCounters* c_;
  std::unique_ptr<TimingContext> context_;
};

}  // namespace

std::unique_ptr<core::Scheduler> make_timing_scheduler(
    std::unique_ptr<core::Scheduler> inner, LayerCounters& counters) {
  return std::make_unique<TimingScheduler>(std::move(inner), counters);
}

}  // namespace perfbench
