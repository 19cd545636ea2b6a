#pragma once
// Session-keyed detection: the pipeline variant that implements the
// paper's threat-model accounting exactly (Section III-B). Alerts are
// grouped into attack sessions by the AttackSessionizer (same account =
// one attack, regardless of sources and hosts) and each session runs its
// own detector instance — so an attacker hopping hosts under one stolen
// account is tracked as a single evolving attack, which host keying
// fragments.

#include <memory>

#include "detect/detector.hpp"
#include "detect/sessionizer.hpp"

namespace at::detect {

struct SessionDetection {
  std::uint32_t session_id = 0;
  std::string account;
  Detection detection;
};

class SessionPipeline {
 public:
  using Factory = std::function<std::unique_ptr<Detector>()>;

  explicit SessionPipeline(Factory factory) : factory_(std::move(factory)) {}

  /// Feed one alert; returns a detection the first time its session fires.
  std::optional<SessionDetection> on_alert(const alerts::Alert& alert);

  [[nodiscard]] const AttackSessionizer& sessionizer() const noexcept {
    return sessionizer_;
  }
  [[nodiscard]] const std::vector<SessionDetection>& detections() const noexcept {
    return detections_;
  }

 private:
  struct SessionState {
    std::unique_ptr<Detector> detector;
    std::size_t index = 0;
    bool fired = false;
  };

  Factory factory_;
  AttackSessionizer sessionizer_;
  std::unordered_map<std::uint32_t, SessionState> states_;
  std::vector<SessionDetection> detections_;
};

}  // namespace at::detect
