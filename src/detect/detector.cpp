#include "detect/detector.hpp"

#include <algorithm>
#include <set>

namespace at::detect {

std::optional<Detection> CriticalAlertDetector::observe(const alerts::Alert& alert,
                                                        std::size_t index) {
  if (fired_ || !alert.critical()) return std::nullopt;
  fired_ = true;
  return Detection{index, alert.ts, 1.0,
                   std::string("critical alert ") + std::string(alert.symbol_name())};
}

std::optional<Detection> ThresholdDetector::observe(const alerts::Alert& alert,
                                                    std::size_t index) {
  if (fired_ || alerts::severity_of(alert.type) < floor_) return std::nullopt;
  fired_ = true;
  return Detection{index, alert.ts, 1.0,
                   std::string("severity >= floor: ") + std::string(alert.symbol_name())};
}

RuleBasedDetector::RuleBasedDetector(std::vector<Signature> signatures)
    : signatures_(std::move(signatures)) {
  progress_.assign(signatures_.size(), 0);
}

RuleBasedDetector RuleBasedDetector::train(const std::vector<incidents::Incident>& training,
                                           std::size_t max_len, std::size_t min_len) {
  std::set<std::vector<alerts::AlertType>> distinct;
  for (const auto& incident : training) {
    auto core = incident.core_sequence();
    // Keep only the pre-damage prefix: signatures must be usable *before*
    // irreversible damage, so everything from the first critical alert on
    // is dropped.
    const auto first_critical =
        std::find_if(core.begin(), core.end(),
                     [](alerts::AlertType t) { return alerts::is_critical(t); });
    core.erase(first_critical, core.end());
    if (core.size() > max_len) core.resize(max_len);
    if (core.size() >= min_len) distinct.insert(std::move(core));
  }
  std::vector<Signature> signatures;
  std::size_t id = 0;
  for (const auto& alerts_seq : distinct) {
    signatures.push_back(Signature{"sig-" + std::to_string(++id), alerts_seq});
  }
  return RuleBasedDetector(std::move(signatures));
}

void RuleBasedDetector::add_signature(Signature signature) {
  signatures_.push_back(std::move(signature));
  progress_.push_back(0);
}

void RuleBasedDetector::reset() {
  fired_ = false;
  std::fill(progress_.begin(), progress_.end(), 0);
}

std::optional<Detection> RuleBasedDetector::observe(const alerts::Alert& alert,
                                                    std::size_t index) {
  if (fired_) return std::nullopt;
  for (std::size_t s = 0; s < signatures_.size(); ++s) {
    const auto& signature = signatures_[s].alerts;
    if (progress_[s] < signature.size() && signature[progress_[s]] == alert.type) {
      ++progress_[s];
      if (progress_[s] == signature.size()) {
        fired_ = true;
        return Detection{index, alert.ts, 1.0, "matched " + signatures_[s].name};
      }
    }
  }
  return std::nullopt;
}

FactorGraphDetector::FactorGraphDetector(fg::ModelParams params, double threshold,
                                         alerts::AttackStage stage, bool use_timing,
                                         FgInference inference, double coupling)
    : FactorGraphDetector(fg::compile_params(std::move(params)), threshold, stage,
                          use_timing, inference, coupling) {}

FactorGraphDetector::FactorGraphDetector(std::shared_ptr<const fg::CompiledParams> compiled,
                                         double threshold, alerts::AttackStage stage,
                                         bool use_timing, FgInference inference,
                                         double coupling)
    : threshold_(threshold),
      stage_(stage),
      use_timing_(use_timing),
      inference_(inference),
      filter_(compiled) {
  if (inference_ == FgInference::kEntityIncremental) entity_.emplace(compiled, coupling);
}

FactorGraphDetector FactorGraphDetector::train(const incidents::Corpus& training,
                                               double threshold, bool use_timing) {
  return FactorGraphDetector(fg::learn_params(training), threshold,
                             alerts::AttackStage::kInProgress, use_timing);
}

std::string FactorGraphDetector::name() const {
  const std::string base = entity_ ? "factor-graph-entity-inc" : "factor-graph";
  return use_timing_ ? base + "-timed" : base;
}

void FactorGraphDetector::reset() {
  filter_.reset();
  if (entity_) entity_->reset();
  last_ts_.reset();
  fired_ = false;
}

std::optional<Detection> FactorGraphDetector::observe(const alerts::Alert& alert,
                                                      std::size_t index) {
  if (fired_) return std::nullopt;
  std::optional<fg::GapBucket> gap;
  if (use_timing_ && last_ts_) gap = fg::bucket_for_gap(alert.ts - *last_ts_);
  last_ts_ = alert.ts;
  double p = 0.0;
  std::string quantity;
  if (entity_) {
    p = entity_->observe(alert.type, gap);
    quantity = "P(malicious)";
  } else {
    filter_.observe(alert.type, gap);
    p = filter_.p_at_least(stage_);
    quantity = "P(stage>=" + std::string(alerts::to_string(stage_)) + ")";
  }
  if (p >= threshold_) {
    fired_ = true;
    return Detection{index, alert.ts, p, quantity + "=" + std::to_string(p)};
  }
  return std::nullopt;
}

}  // namespace at::detect
