#include "core/retry.hpp"

#include <algorithm>
#include <cmath>

namespace hetflow::core {

double RetryPolicy::backoff_delay_s(std::uint32_t attempt) const noexcept {
  if (backoff_base_s <= 0.0) {
    return 0.0;
  }
  const double exponent =
      attempt > 0 ? static_cast<double>(attempt - 1) : 0.0;
  const double delay = backoff_base_s * std::pow(backoff_factor, exponent);
  return std::min(delay, backoff_max_s);
}

double RetryPolicy::backoff_delay_s(std::uint32_t attempt,
                                    util::Rng& rng) const {
  double delay = backoff_delay_s(attempt);
  if (backoff_jitter > 0.0 && delay > 0.0) {
    HETFLOW_REQUIRE_MSG(backoff_jitter <= 1.0,
                        "backoff_jitter must be in [0, 1]");
    delay *= 1.0 + backoff_jitter * rng.uniform();
  }
  return delay;
}

bool DeviceHealth::note_failure(hw::DeviceId id, std::size_t blacklist_after,
                                sim::SimTime until) {
  Entry& e = entry(id);
  ++e.consecutive_failures;
  if (blacklist_after == 0 || e.state == State::Blacklisted) {
    return false;
  }
  // During probation a single failure re-quarantines immediately — the
  // device has not yet proven itself healthy again.
  const std::size_t threshold =
      e.state == State::Probation ? 1 : blacklist_after;
  if (e.consecutive_failures < threshold) {
    return false;
  }
  e.state = State::Blacklisted;
  e.blacklisted_until = until;
  ++e.blacklist_events;
  return true;
}

void DeviceHealth::note_success(hw::DeviceId id) {
  Entry& e = entry(id);
  e.consecutive_failures = 0;
  if (e.state == State::Probation) {
    e.state = State::Healthy;
  }
}

void DeviceHealth::quarantine(hw::DeviceId id, sim::SimTime until) {
  Entry& e = entry(id);
  if (e.state == State::Blacklisted) {
    e.blacklisted_until = std::max(e.blacklisted_until, until);
    return;
  }
  e.state = State::Blacklisted;
  e.blacklisted_until = until;
  ++e.blacklist_events;
}

void DeviceHealth::end_blacklist(hw::DeviceId id) {
  Entry& e = entry(id);
  HETFLOW_REQUIRE_MSG(e.state == State::Blacklisted,
                      "end_blacklist on a device that is not blacklisted");
  e.state = State::Probation;
  e.consecutive_failures = 0;
}

const char* to_string(DeviceHealth::State state) noexcept {
  switch (state) {
    case DeviceHealth::State::Healthy:
      return "healthy";
    case DeviceHealth::State::Blacklisted:
      return "blacklisted";
    case DeviceHealth::State::Probation:
      return "probation";
  }
  return "?";
}

}  // namespace hetflow::core
