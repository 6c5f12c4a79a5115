#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/strings.hpp"

namespace hetflow::obs {

void TimeWeighted::update(sim::SimTime t, double value) {
  if (updates_ == 0) {
    first_t_ = t;
    last_t_ = t;
    current_ = value;
    min_ = value;
    max_ = value;
  } else {
    HETFLOW_REQUIRE_MSG(t >= last_t_,
                        "time-weighted metric updated backwards in time");
    integral_ += current_ * (t - last_t_);
    last_t_ = t;
    current_ = value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++updates_;
}

double TimeWeighted::mean() const noexcept {
  if (last_t_ > first_t_) {
    return integral_ / (last_t_ - first_t_);
  }
  return current_;
}

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::Counter:
      return "counter";
    case MetricKind::Gauge:
      return "gauge";
    case MetricKind::TimeWeighted:
      return "time_weighted";
  }
  return "?";
}

std::string MetricsRegistry::key(const std::string& name,
                                 const Labels& labels) {
  if (labels.empty()) {
    return name;
  }
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::entry(const std::string& name,
                                               const Labels& labels,
                                               MetricKind kind) {
  const std::string k = key(name, labels);
  auto [it, inserted] = entries_.try_emplace(k);
  if (inserted) {
    it->second.name = name;
    it->second.labels = labels;
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    throw InvalidArgument(util::format(
        "metric '%s' already registered as %s, requested as %s", k.c_str(),
        to_string(it->second.kind), to_string(kind)));
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  return entry(name, labels, MetricKind::Counter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return entry(name, labels, MetricKind::Gauge).gauge;
}

TimeWeighted& MetricsRegistry::time_weighted(const std::string& name,
                                             const Labels& labels) {
  return entry(name, labels, MetricKind::TimeWeighted).tw;
}

double MetricsRegistry::counter_sum(const std::string& name) const {
  double sum = 0.0;
  for (const auto& [k, e] : entries_) {
    if (e.name == name && e.kind == MetricKind::Counter) {
      sum += e.counter.value();
    }
  }
  return sum;
}

double MetricsRegistry::counter_value(const std::string& name,
                                      const Labels& labels) const {
  const auto it = entries_.find(key(name, labels));
  if (it == entries_.end() || it->second.kind != MetricKind::Counter) {
    return 0.0;
  }
  return it->second.counter.value();
}

std::string MetricsRegistry::to_json_string() const {
  // Keys in sorted order, as JsonWriter::key() requires. Labels are
  // sorted by name; a repeated label name keeps its last value.
  util::JsonWriter out(2);
  std::map<std::string_view, std::string_view> labels;
  out.begin_object().key("metrics").begin_array();
  for (const auto& [k, e] : entries_) {
    out.begin_object();
    out.key("kind").string(to_string(e.kind));
    labels.clear();
    for (const auto& [name, value] : e.labels) {
      labels[name] = value;
    }
    out.key("labels").begin_object();
    for (const auto& [name, value] : labels) {
      out.key(name).string(value);
    }
    out.end_object();
    double value = e.counter.value();
    if (e.kind == MetricKind::Gauge) {
      value = e.gauge.value();
    } else if (e.kind == MetricKind::TimeWeighted) {
      value = e.tw.last();
      out.key("max").number(e.tw.max());
      out.key("mean").number(e.tw.mean());
      out.key("min").number(e.tw.min());
    }
    out.key("name").string(e.name);
    if (e.kind == MetricKind::TimeWeighted) {
      out.key("updates").number(static_cast<double>(e.tw.updates()));
    }
    out.key("value").number(value);
    out.end_object();
  }
  out.end_array().end_object().newline();
  return out.take();
}

std::string MetricsRegistry::to_csv() const {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.header({"name", "labels", "kind", "value", "min", "max", "mean",
              "updates"});
  const auto num = [](double v) { return util::format("%.17g", v); };
  for (const auto& [k, e] : entries_) {
    std::string labels;
    for (std::size_t i = 0; i < e.labels.size(); ++i) {
      if (i > 0) {
        labels += ';';
      }
      labels += e.labels[i].first + "=" + e.labels[i].second;
    }
    switch (e.kind) {
      case MetricKind::Counter:
        csv.row({e.name, labels, "counter", num(e.counter.value()), "", "",
                 "", ""});
        break;
      case MetricKind::Gauge:
        csv.row({e.name, labels, "gauge", num(e.gauge.value()), "", "", "",
                 ""});
        break;
      case MetricKind::TimeWeighted:
        csv.row({e.name, labels, "time_weighted", num(e.tw.last()),
                 num(e.tw.min()), num(e.tw.max()), num(e.tw.mean()),
                 std::to_string(e.tw.updates())});
        break;
    }
  }
  return out.str();
}

}  // namespace hetflow::obs
