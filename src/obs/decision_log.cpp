#include "obs/decision_log.hpp"

#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace hetflow::obs {

std::string decisions_to_jsonl(const std::vector<SchedDecision>& decisions,
                               const hw::Platform& platform) {
  // Each device name is escaped once here, not once per candidate row.
  std::vector<std::string> device_names(platform.device_count());
  for (hw::DeviceId d = 0; d < platform.device_count(); ++d) {
    util::append_json_string(device_names[d], platform.device(d).name());
  }
  // Keys in sorted order, as JsonWriter::key() requires.
  util::JsonWriter out(0);
  for (const SchedDecision& d : decisions) {
    out.begin_object();
    out.key("candidates").begin_array();
    for (const DecisionCandidate& c : d.candidates) {
      out.begin_object();
      if (c.blacklisted) {
        out.key("blacklisted").boolean(true);
      }
      out.key("device").raw(device_names.at(c.device));
      out.key("energy_j").number(c.predicted_energy_j);
      out.key("finish_s").number(c.predicted_finish_s);
      out.end_object();
    }
    out.end_array();
    out.key("name").string(d.task_name);
    out.key("reason").string(d.reason);
    out.key("sched").string(d.scheduler);
    out.key("t").number(d.time);
    out.key("task").number(static_cast<double>(d.task));
    out.key("winner").raw(device_names.at(d.winner));
    out.end_object();
    out.newline();
  }
  return out.take();
}

}  // namespace hetflow::obs
