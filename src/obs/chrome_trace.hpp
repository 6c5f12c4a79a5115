// Merged Chrome-trace-event exporter: the trace::Tracer's execution
// spans plus the Recorder's instant/flow events (transfers, prefetches,
// retries, scheduler decisions) in one document that loads in
// chrome://tracing and Perfetto.
//
// Track layout (all under pid 1):
//   tid 0..D-1              one row per device (exec/failed spans,
//                           retry/decision/blacklist instants)
//   tid 1000 + s*N + d      one row per (src, dst) memory-node pair that
//                           actually moved data ("xfer node->node")
//
// Scheduler decisions additionally emit flow arrows (ph "s"/"f", id =
// task id) from the decision instant to the start of the task's
// successful execution span, so Perfetto draws "decided here -> ran
// there" across tracks.
#pragma once

#include <cstdint>
#include <string>

#include "hw/platform.hpp"
#include "obs/recorder.hpp"
#include "trace/tracer.hpp"

namespace hetflow::obs {

/// First tid of the transfer tracks; every tid below it is a device.
inline constexpr std::int64_t kTransferTidBase = 1000;

/// Serializes the merged trace. `recorder` may be null — the output then
/// holds the process and device metadata and the execution spans only
/// (what hetflow_run --trace-json writes).
std::string chrome_trace_json(const trace::Tracer& tracer,
                              const hw::Platform& platform,
                              const Recorder* recorder);

}  // namespace hetflow::obs
