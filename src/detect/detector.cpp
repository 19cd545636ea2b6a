#include "detect/detector.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

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
    : table_(build_table(std::move(signatures))), progress_(table_->signatures.size(), 0) {}

std::shared_ptr<const RuleBasedDetector::Table> RuleBasedDetector::build_table(
    std::vector<Signature> signatures) {
  for (const auto& signature : signatures) {
    if (signature.alerts.size() > kMaxSignatureLength) {
      throw std::invalid_argument("signature " + signature.name + " has " +
                                  std::to_string(signature.alerts.size()) +
                                  " alerts; at most " + std::to_string(kMaxSignatureLength) +
                                  " are supported");
    }
  }
  auto table = std::make_shared<Table>();
  table->signatures = std::move(signatures);
  // Each signature is listed once under every distinct type it contains,
  // in ascending id order within each type.
  std::vector<std::vector<std::uint32_t>> by_type(alerts::kNumAlertTypes);
  for (std::size_t id = 0; id < table->signatures.size(); ++id) {
    for (const alerts::AlertType type : table->signatures[id].alerts) {
      auto& ids = by_type[static_cast<std::size_t>(type)];
      if (ids.empty() || ids.back() != id) ids.push_back(static_cast<std::uint32_t>(id));
    }
  }
  for (std::size_t t = 0; t < alerts::kNumAlertTypes; ++t) {
    table->type_begin[t] = static_cast<std::uint32_t>(table->ids.size());
    table->ids.insert(table->ids.end(), by_type[t].begin(), by_type[t].end());
  }
  table->type_begin[alerts::kNumAlertTypes] = static_cast<std::uint32_t>(table->ids.size());
  return table;
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
  auto signatures = table_->signatures;
  signatures.push_back(std::move(signature));
  table_ = build_table(std::move(signatures));
  progress_.push_back(0);
}

void RuleBasedDetector::reset() {
  fired_ = false;
  std::fill(progress_.begin(), progress_.end(), std::uint8_t{0});
}

std::optional<Detection> RuleBasedDetector::observe(const alerts::Alert& alert,
                                                    std::size_t index) {
  const auto type = static_cast<std::size_t>(alert.type);
  if (fired_ || type >= alerts::kNumAlertTypes) return std::nullopt;
  const Table& table = *table_;
  // Ascending ids, each signature at most once: the lowest id completing
  // on this alert fires, as a scan over every signature would find.
  for (std::uint32_t k = table.type_begin[type]; k < table.type_begin[type + 1]; ++k) {
    const std::uint32_t id = table.ids[k];
    const auto& steps = table.signatures[id].alerts;
    std::uint8_t& progress = progress_[id];
    if (progress < steps.size() && steps[progress] == alert.type &&
        ++progress == steps.size()) {
      fired_ = true;
      return Detection{index, alert.ts, 1.0, "matched " + table.signatures[id].name};
    }
  }
  return std::nullopt;
}

namespace {

std::variant<fg::ForwardFilter, fg::EntityFilter> make_engine(
    std::shared_ptr<const fg::CompiledParams> compiled, FgInference inference,
    double coupling) {
  if (inference == FgInference::kEntityIncremental) {
    return fg::EntityFilter(std::move(compiled), coupling);
  }
  return fg::ForwardFilter(std::move(compiled));
}

}  // namespace

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
      engine_(make_engine(std::move(compiled), inference, coupling)) {}

FactorGraphDetector FactorGraphDetector::train(const incidents::Corpus& training,
                                               double threshold, bool use_timing) {
  return FactorGraphDetector(fg::learn_params(training), threshold,
                             alerts::AttackStage::kInProgress, use_timing);
}

std::string FactorGraphDetector::name() const {
  const std::string base = inference() == FgInference::kEntityIncremental
                               ? "factor-graph-entity-inc"
                               : "factor-graph";
  return use_timing_ ? base + "-timed" : base;
}

const fg::ModelParams& FactorGraphDetector::params() const noexcept {
  if (const auto* entity = std::get_if<fg::EntityFilter>(&engine_)) return entity->params();
  return std::get_if<fg::ForwardFilter>(&engine_)->params();
}

void FactorGraphDetector::reset() {
  std::visit([](auto& engine) { engine.reset(); }, engine_);
  last_ts_.reset();
  fired_ = false;
}

std::optional<Detection> FactorGraphDetector::observe(const alerts::Alert& alert,
                                                      std::size_t index) {
  if (fired_) return std::nullopt;
  std::optional<fg::GapBucket> gap;
  if (use_timing_ && last_ts_) gap = fg::bucket_for_gap(alert.ts - *last_ts_);
  last_ts_ = alert.ts;
  auto* entity = std::get_if<fg::EntityFilter>(&engine_);
  double p = 0.0;
  if (entity != nullptr) {
    p = entity->observe(alert.type, gap);
  } else {
    auto& forward = *std::get_if<fg::ForwardFilter>(&engine_);
    forward.observe(alert.type, gap);
    p = forward.p_at_least(stage_);
  }
  if (p >= threshold_) {
    // The reason is built only on firing: the forward-mode text outgrows the
    // small-string buffer, so building it per alert would allocate per alert.
    fired_ = true;
    const std::string quantity =
        entity != nullptr ? "P(malicious)"
                          : "P(stage>=" + std::string(alerts::to_string(stage_)) + ")";
    return Detection{index, alert.ts, p, quantity + "=" + std::to_string(p)};
  }
  return std::nullopt;
}

}  // namespace at::detect
