// Codelet — a multi-device task implementation descriptor (StarPU's
// central abstraction).
//
// A codelet names one kind of computation ("dgemm-tile", "project-image")
// and declares, per device type, whether an implementation exists and how
// efficiently it uses that device type's peak throughput. A task instance
// binds a codelet to a flop count and concrete data accesses; its
// execution time on device d at the nominal DVFS point is
//
//     launch_overhead(d) + flops / (peak_gflops(d) * 1e9 * efficiency(type(d)))
//
// Efficiency captures how well the kernel maps onto the architecture:
// dense GEMM might be 0.85 on a GPU but an irregular graph kernel 0.05.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "hw/device.hpp"
#include "util/error.hpp"

namespace hetflow::core {

class Codelet {
 public:
  /// Storage stays owning (codelets are shared across runtimes, so they
  /// cannot borrow from any one runtime's name arena); the view parameter
  /// just avoids a temporary std::string at the call sites.
  explicit Codelet(std::string_view name);

  /// Globally unique id (used to key performance histories).
  std::uint32_t id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  /// Declares an implementation for `type` with the given efficiency in
  /// (0, 1]. Returns *this for chaining.
  Codelet& implement(hw::DeviceType type, double efficiency);

  bool supports(hw::DeviceType type) const noexcept {
    return efficiency_[static_cast<std::size_t>(type)] > 0.0;
  }
  /// Efficiency in (0, 1], or 0 when unsupported.
  double efficiency(hw::DeviceType type) const noexcept {
    return efficiency_[static_cast<std::size_t>(type)];
  }
  /// True if at least one device type has an implementation.
  bool implemented() const noexcept;

  /// Analytic pure-compute time (excl. launch overhead) on `device` at its
  /// nominal DVFS point. Throws InvalidArgument when unsupported.
  /// Inline: called ~3x per task from the assignment hot path, and the
  /// body is one divide off a cached efficiency table.
  double compute_seconds(const hw::Device& device, double flops) const {
    const double eff = efficiency(device.type());
    if (eff <= 0.0) {
      throw_no_implementation(device.type());
    }
    if (flops <= 0.0) {
      return 0.0;
    }
    return flops / (device.peak_gflops() * 1e9 * eff);
  }

  /// Convenience factory returning a shared immutable codelet.
  static std::shared_ptr<const Codelet> make(
      std::string_view name,
      std::initializer_list<std::pair<hw::DeviceType, double>> impls);

 private:
  /// Cold path of compute_seconds, kept out of line so the inline body
  /// stays a divide.
  [[noreturn]] void throw_no_implementation(hw::DeviceType type) const;

  std::uint32_t id_;
  std::string name_;
  std::array<double, hw::kDeviceTypeCount> efficiency_{};
};

using CodeletPtr = std::shared_ptr<const Codelet>;

}  // namespace hetflow::core
