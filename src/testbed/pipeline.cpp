#include "testbed/pipeline.hpp"

namespace at::testbed {

AlertPipeline::AlertPipeline(PipelineConfig config, bhr::BlackHoleRouter* router)
    : config_(config), router_(router), filter_(config.scan_filter_window) {}

void AlertPipeline::add_detector(std::string name, DetectorFactory factory) {
  factories_.emplace_back(std::move(name), std::move(factory));
}

void AlertPipeline::maybe_evict(util::SimTime now) {
  if (config_.entity_idle_ttl <= 0) return;
  if (alerts_in_ % std::max<std::size_t>(1, config_.eviction_check_every) != 0) return;
  for (auto it = entities_.begin(); it != entities_.end();) {
    if (now - it->second.last_seen > config_.entity_idle_ttl) {
      it = entities_.erase(it);
      ++evicted_;
    } else {
      ++it;
    }
  }
}

std::string AlertPipeline::entity_key(const alerts::Alert& alert) {
  // Per the paper's threat model one attack is tracked per entity. Host
  // keying aggregates everything observed on one machine (inbound probes,
  // process activity, outbound beacons) into one substream — the view the
  // per-host factor graph reasons over; alerts with no host context fall
  // back to the source address.
  if (!alert.host.empty()) return "host:" + alert.host;
  if (alert.src) return "ip:" + alert.src->str();
  return "user:" + alert.user;
}

AlertPipeline::EntityState& AlertPipeline::state_for(const std::string& key) {
  auto it = entities_.find(key);
  if (it != entities_.end()) return it->second;
  EntityState state;
  for (const auto& [name, factory] : factories_) {
    state.detectors.push_back(factory());
    state.names.push_back(name);
  }
  return entities_.emplace(key, std::move(state)).first->second;
}

void AlertPipeline::on_alert(const alerts::Alert& alert) {
  ++alerts_in_;
  if (!filter_.keep(alert)) return;
  ++alerts_kept_;

  maybe_evict(alert.ts);
  const std::string key = entity_key(alert);
  EntityState& state = state_for(key);
  const std::size_t index = state.index++;
  state.last_seen = alert.ts;
  if (alert.src) state.last_src = alert.src;
  for (std::size_t d = 0; d < state.detectors.size(); ++d) {
    const auto detection = state.detectors[d]->observe(alert, index);
    if (!detection) continue;
    Notification note;
    note.ts = alert.ts;
    note.entity = key;
    note.detector = state.names[d];
    note.reason = detection->reason;
    note.score = detection->score;
    // Host-local alerts carry no address; fall back to the entity's most
    // recent external peer (the attacker's entry address).
    note.source = alert.src ? alert.src : state.last_src;
    notifications_.push_back(note);
    if (router_ != nullptr && note.source) {
      router_->block(*note.source, alert.ts, config_.block_ttl,
                     state.names[d] + ": " + detection->reason, "attacktagger-pipeline");
    }
  }
}

}  // namespace at::testbed
