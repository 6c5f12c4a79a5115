// Host-speed probe: a fixed reference kernel run between the measured
// sections of a workload, so host-time figures can be rescaled to one
// reference speed.
//
// On a shared VM the speed of the whole core moves by up to 1.6x in phases
// of a fraction of a second to minutes, with CPU time equal to wall time.
// A run of one seed can land wholly in a slow phase, so no summary over
// its own passes recovers the program's cost. The probe measures the
// host's speed right before and right after each measured section; a host
// time t measured at speed s is reported as t * s, the time the section
// would have taken at the reference speed (s = 1). The kernel is benchmark
// code only, so a faster program still reads faster.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Builds the kernel's inputs and warms it up.
  HostSpeed();

  /// Runs the kernel for about a sixth of `busy_ns` (at least two units)
  /// and returns the host speed it measured: 1 at the reference speed,
  /// below 1 on a slower host.
  double probe(std::int64_t busy_ns);

 private:
  struct Event {
    double time;
    std::uint32_t id;
  };
  /// Runs one unit; adds each part's ns to `part_ns`.
  void unit(double part_ns[]);

  std::vector<double> keys_;
  std::vector<double> sorted_;
  std::vector<Event> heap_;
  std::vector<double> buffer_;
  double unit_ns_ = 0.0;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
