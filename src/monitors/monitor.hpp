#pragma once
// Monitor framework. A Monitor turns raw events into symbolic alerts and
// pushes them into an AlertSink (the testbed pipeline). The tamper model
// follows the paper's defender assumptions: an attacker with local
// privilege may disable a monitor *on one host*, but cannot disable all
// monitors; per-host tampering therefore silences that host's events on
// the tampered monitor only.
//
// Monitors may emit from different threads (the detection daemon's sink
// is itself serialized), so the tamper set and counters are guarded by an
// annotated mutex; the sink call happens outside the lock to keep the
// lock order Monitor -> sink one-way.

#include <string>
#include <unordered_set>

#include "alerts/alert.hpp"
#include "util/annotated_mutex.hpp"

namespace at::monitors {

class Monitor {
 public:
  Monitor(std::string name, alerts::Origin origin, alerts::AlertSink& sink)
      : name_(std::move(name)), origin_(origin), sink_(&sink) {}
  virtual ~Monitor() = default;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] alerts::Origin origin() const noexcept { return origin_; }
  [[nodiscard]] std::uint64_t emitted() const {
    util::LockGuard lock(mu_);
    return emitted_;
  }
  [[nodiscard]] std::uint64_t suppressed() const {
    util::LockGuard lock(mu_);
    return suppressed_;
  }

  /// Attacker tampers with this monitor on `host`; its events go dark.
  void tamper(const std::string& host) {
    util::LockGuard lock(mu_);
    tampered_hosts_.insert(host);
  }
  void restore(const std::string& host) {
    util::LockGuard lock(mu_);
    tampered_hosts_.erase(host);
  }
  [[nodiscard]] bool tampered(const std::string& host) const {
    util::LockGuard lock(mu_);
    return tampered_hosts_.contains(host);
  }

 protected:
  /// Emit unless the observing host has been tampered with.
  void emit(alerts::Alert alert) {
    alert.origin = origin_;
    {
      util::LockGuard lock(mu_);
      if (tampered_hosts_.contains(alert.host)) {
        ++suppressed_;
        return;
      }
      ++emitted_;
    }
    // The alert was taken by value; hand ownership to the sink (move-aware
    // sinks like the detection daemon's rings take it without a copy).
    sink_->on_alert(std::move(alert));
  }

 private:
  std::string name_ AT_NOT_GUARDED;        ///< immutable after ctor
  alerts::Origin origin_ AT_NOT_GUARDED;   ///< immutable after ctor
  alerts::AlertSink* sink_ AT_NOT_GUARDED; ///< immutable pointer; sink serializes itself
  mutable util::Mutex mu_;
  std::unordered_set<std::string> tampered_hosts_ AT_GUARDED_BY(mu_);
  std::uint64_t emitted_ AT_GUARDED_BY(mu_) = 0;
  std::uint64_t suppressed_ AT_GUARDED_BY(mu_) = 0;
};

}  // namespace at::monitors
