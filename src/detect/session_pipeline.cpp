#include "detect/session_pipeline.hpp"

namespace at::detect {

std::optional<SessionDetection> SessionPipeline::on_alert(const alerts::Alert& alert) {
  const std::uint32_t session_id = sessionizer_.ingest(alert);
  auto it = states_.find(session_id);
  if (it == states_.end()) {
    SessionState state;
    state.detector = factory_();
    state.detector->reset();
    it = states_.emplace(session_id, std::move(state)).first;
  }
  SessionState& state = it->second;
  if (state.fired) return std::nullopt;
  const auto detection = state.detector->observe(alert, state.index++);
  if (!detection) return std::nullopt;
  state.fired = true;
  SessionDetection out;
  out.session_id = session_id;
  const auto* session = sessionizer_.find(session_id);
  if (session != nullptr) out.account = session->account;
  out.detection = *detection;
  detections_.push_back(out);
  return out;
}

}  // namespace at::detect
